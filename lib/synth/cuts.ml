module Aig = Gap_logic.Aig
module Obs = Gap_obs.Obs

type cut = { leaves : int array; sign : int; bits : int }

let max_k = 5
let[@inline] leaf_sign leaf = 1 lsl (leaf mod 63)

(* The projection onto input 0 of a one-input table is 0b10. *)
let trivial n = { leaves = [| n |]; sign = leaf_sign n; bits = 2 }
let size c = Array.length c.leaves

(* Whether [x] has at most [k] bits set: clears one bit per step, so it
   stops after at most [k + 1] steps. *)
let rec popcount_le x k = x = 0 || (k > 0 && popcount_le (x land (x - 1)) (k - 1))

(* Truth tables of at most [max_k] inputs as ints: the projection patterns
   over 32 minterm slots, and the mask of the [2^vars] live bits. *)
let var_patterns = [| 0xAAAAAAAA; 0xCCCCCCCC; 0xF0F0F0F0; 0xFF00FF00; 0xFFFF0000 |]
let masks = Array.init (max_k + 1) (fun vars -> (1 lsl (1 lsl vars)) - 1)

(* Swap inputs [i < j]: the minterms with x_i = 1, x_j = 0 trade places with
   those with x_i = 0, x_j = 1, [2^j - 2^i] slots higher. *)
let[@inline] swap_bits bits i j =
  let pi = var_patterns.(i) and pj = var_patterns.(j) in
  let shift = (1 lsl j) - (1 lsl i) in
  let up = pi land lnot pj and down = lnot pi land pj in
  bits land lnot (up lor down) lor ((bits land up) lsl shift) lor ((bits land down) lsr shift)

(* The table of child cut [c], complemented when [compl_], lifted onto the
   [n] merged leaves [leaves] (a superset of [c.leaves]): replicate it over
   the new inputs, then move its inputs into place top-down, where every
   slot above input [i] is by then a placed input or a don't-care. *)
let lift c compl_ leaves n =
  let m = size c in
  let bits = ref c.bits in
  for v = m to n - 1 do
    bits := !bits lor (!bits lsl (1 lsl v))
  done;
  let o = ref (n - 1) in
  for i = m - 1 downto 0 do
    while leaves.(!o) <> c.leaves.(i) do
      decr o
    done;
    if !o <> i then bits := swap_bits !bits i !o
  done;
  if compl_ then !bits lxor masks.(n) else !bits

(* Merge the sorted leaf arrays [a] and [b] into [out]; the union's size, or
   [k + 1] as soon as it would exceed [k]. *)
let merge k a b out =
  let la = Array.length a and lb = Array.length b in
  let rec go i j n =
    if i = la && j = lb then n
    else if n = k then k + 1
    else if j = lb || (i < la && a.(i) < b.(j)) then begin
      out.(n) <- a.(i);
      go (i + 1) j (n + 1)
    end
    else begin
      out.(n) <- b.(j);
      go (if i < la && a.(i) = b.(j) then i + 1 else i) (j + 1) (n + 1)
    end
  in
  go 0 0 0

(* Whether the sorted [a] is a subset of the first [lb] entries of the
   sorted [b]. *)
let subset a b lb =
  let la = Array.length a in
  let rec go i j =
    if i = la then true
    else if j = lb then false
    else if a.(i) = b.(j) then go (i + 1) (j + 1)
    else if a.(i) > b.(j) then go i (j + 1)
    else false
  in
  la <= lb && go 0 0

(* Per-node candidate buffer: the kept cuts in order, head first, with one
   slot beyond [per_node] for the cut being inserted. *)
type buf = { cuts : cut array; mutable count : int }

(* Whether a kept cut is a subset of the [n] leaves in [scratch], whose
   signature is [s]. *)
let dominated buf scratch n s =
  let rec go r =
    r < buf.count
    && (let e = buf.cuts.(r) in
        (e.sign land lnot s = 0 && subset e.leaves scratch n) || go (r + 1))
  in
  go 0

(* Add a cut no kept cut dominates: drop the kept cuts it dominates and put
   it first. Beyond [per_node] cuts, stable-sort by size and drop the last. *)
let insert per_node buf c =
  let cuts = buf.cuts in
  let w = ref 0 in
  for r = 0 to buf.count - 1 do
    let e = cuts.(r) in
    if not (c.sign land lnot e.sign = 0 && subset c.leaves e.leaves (size e)) then begin
      cuts.(!w) <- e;
      incr w
    end
  done;
  Array.blit cuts 0 cuts 1 !w;
  cuts.(0) <- c;
  buf.count <- !w + 1;
  if buf.count > per_node then begin
    for i = 1 to buf.count - 1 do
      let x = cuts.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && size cuts.(!j) > size x do
        cuts.(!j + 1) <- cuts.(!j);
        decr j
      done;
      cuts.(!j + 1) <- x
    done;
    buf.count <- per_node
  end

let enumerate ?(k = 4) ?(per_node = 10) g =
  if k < 1 || k > max_k then invalid_arg "Cuts.enumerate: k outside 1..5";
  if per_node < 1 then invalid_arg "Cuts.enumerate: per_node below 1";
  Obs.span "synth.cuts.enumerate" (fun () ->
      let n = Aig.num_nodes g in
      let cuts = Array.make n [||] in
      let buf = { cuts = Array.make (per_node + 1) (trivial 0); count = 0 } in
      let scratch = Array.make k 0 in
      for id = 0 to n - 1 do
        if Aig.is_and g id then begin
          let a, b = Aig.fanins g id in
          let ca_compl = Aig.is_compl a and cb_compl = Aig.is_compl b in
          let cuts_a = cuts.(Aig.id_of_lit a) and cuts_b = cuts.(Aig.id_of_lit b) in
          buf.cuts.(0) <- trivial id;
          buf.count <- 1;
          for x = 0 to Array.length cuts_a - 1 do
            let ca = cuts_a.(x) in
            for y = 0 to Array.length cuts_b - 1 do
              let cb = cuts_b.(y) in
              let s = ca.sign lor cb.sign in
              if popcount_le s k then begin
                let m = merge k ca.leaves cb.leaves scratch in
                if m <= k && not (dominated buf scratch m s) then begin
                  (* the node is the AND of its two fanin literals *)
                  let bits = lift ca ca_compl scratch m land lift cb cb_compl scratch m in
                  insert per_node buf { leaves = Array.sub scratch 0 m; sign = s; bits }
                end
              end
            done
          done;
          cuts.(id) <- Array.sub buf.cuts 0 buf.count
        end
        else cuts.(id) <- [| trivial id |]
      done;
      cuts)

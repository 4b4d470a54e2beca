module Aig = Gap_logic.Aig
module Tt = Gap_logic.Truthtable

type cut = { leaves : int array; tt : Tt.t }

let unit_tt = Tt.var ~vars:1 0
let trivial n = { leaves = [| n |]; tt = unit_tt }
let size c = Array.length c.leaves

(* Size of the union of two sorted leaf arrays, or some size above [k] as
   soon as it exceeds [k]: pairs that fail here allocate nothing. *)
let union_size k a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i j n =
    if n > k then n
    else if i = la then n + (lb - j)
    else if j = lb then n + (la - i)
    else
      let x = a.(i) and y = b.(j) in
      if x = y then go (i + 1) (j + 1) (n + 1)
      else if x < y then go (i + 1) j (n + 1)
      else go i (j + 1) (n + 1)
  in
  go 0 0 0

(* The union itself, [n] leaves long. *)
let union n a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make n 0 in
  let i = ref 0 and j = ref 0 in
  for o = 0 to n - 1 do
    if !j = lb || (!i < la && a.(!i) < b.(!j)) then begin
      out.(o) <- a.(!i);
      incr i
    end
    else begin
      if !i < la && a.(!i) = b.(!j) then incr i;
      out.(o) <- b.(!j);
      incr j
    end
  done;
  out

(* The table of child cut [c], complemented when [compl_], lifted onto the
   merged leaf set [leaves] (a superset of [c.leaves]). *)
let lift c compl_ leaves =
  let pos = Array.make (size c) 0 in
  let o = ref 0 in
  for i = 0 to size c - 1 do
    while leaves.(!o) <> c.leaves.(i) do
      incr o
    done;
    pos.(i) <- !o
  done;
  let t = Tt.stretch c.tt ~vars:(Array.length leaves) pos in
  if compl_ then Tt.lognot t else t

let subset a b =
  (* both sorted *)
  let la = Array.length a and lb = Array.length b in
  let rec go i j =
    if i = la then true
    else if j = lb then false
    else if a.(i) = b.(j) then go (i + 1) (j + 1)
    else if a.(i) > b.(j) then go i (j + 1)
    else false
  in
  la <= lb && go 0 0

let dominated leaves existing = List.exists (fun e -> subset e.leaves leaves) existing

(* Add a cut no existing cut dominates, dropping the cuts it dominates. *)
let insert_cut per_node cuts c =
  let survivors = List.filter (fun e -> not (subset c.leaves e.leaves)) cuts in
  let cuts = c :: survivors in
  if List.length cuts <= per_node then cuts
  else begin
    (* Drop the largest cut beyond the budget (trivial cut is size 1 and
       thus always survives). *)
    let sorted = List.sort (fun a b -> Int.compare (size a) (size b)) cuts in
    let rec take n = function
      | [] -> []
      | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
    in
    take per_node sorted
  end

(* Cut tables repeat (a design has far fewer distinct cut functions than
   cuts), so each is stored once: the cut lists stay compact while live. *)
module Tt_tbl = Hashtbl.Make (struct
  type t = Tt.t

  let equal = Tt.equal
  let hash (t : t) = Hashtbl.hash (Tt.vars t, Tt.bits t)
end)

let enumerate ?(k = 4) ?(per_node = 10) g =
  if k > Tt.max_vars then invalid_arg "Cuts.enumerate: k above Truthtable.max_vars";
  let n = Aig.num_nodes g in
  let cuts = Array.make n [] in
  let tables = Tt_tbl.create 256 in
  let intern tt =
    match Tt_tbl.find_opt tables tt with
    | Some shared -> shared
    | None ->
        Tt_tbl.replace tables tt tt;
        tt
  in
  for id = 0 to n - 1 do
    if Aig.is_and g id then begin
      let a, b = Aig.fanins g id in
      let ia = Aig.id_of_lit a and ib = Aig.id_of_lit b in
      let ca_compl = Aig.is_compl a and cb_compl = Aig.is_compl b in
      let acc = ref [ trivial id ] in
      List.iter
        (fun ca ->
          List.iter
            (fun cb ->
              let n = union_size k ca.leaves cb.leaves in
              if n <= k then begin
                let leaves = union n ca.leaves cb.leaves in
                if not (dominated leaves !acc) then begin
                  (* the node is the AND of its two fanin literals *)
                  let tt =
                    intern (Tt.logand (lift ca ca_compl leaves) (lift cb cb_compl leaves))
                  in
                  acc := insert_cut per_node !acc { leaves; tt }
                end
              end)
            cuts.(ib))
        cuts.(ia);
      cuts.(id) <- !acc
    end
    else cuts.(id) <- [ trivial id ]
  done;
  cuts

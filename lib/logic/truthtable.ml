type t = { vars : int; bits : int64 }

let max_vars = 6

let masks =
  Array.init (max_vars + 1) (fun vars ->
      let rows = 1 lsl vars in
      if rows >= 64 then -1L else Int64.sub (Int64.shift_left 1L rows) 1L)

let create ~vars bits =
  assert (vars >= 0 && vars <= max_vars);
  { vars; bits = Int64.logand bits masks.(vars) }

let vars t = t.vars
let bits t = t.bits
let const_false ~vars = create ~vars 0L
let const_true ~vars = create ~vars (-1L)

(* The projection patterns for each variable over 64 minterm slots. *)
let var_patterns =
  [|
    0xAAAAAAAAAAAAAAAAL;
    0xCCCCCCCCCCCCCCCCL;
    0xF0F0F0F0F0F0F0F0L;
    0xFF00FF00FF00FF00L;
    0xFFFF0000FFFF0000L;
    0xFFFFFFFF00000000L;
  |]

let var ~vars i =
  assert (i >= 0 && i < vars);
  create ~vars var_patterns.(i)

let lognot t = create ~vars:t.vars (Int64.lognot t.bits)

let binop op a b =
  assert (a.vars = b.vars);
  create ~vars:a.vars (op a.bits b.bits)

let logand = binop Int64.logand
let logor = binop Int64.logor
let logxor = binop Int64.logxor
let equal a b = a.vars = b.vars && Int64.equal a.bits b.bits

let eval t m =
  assert (m >= 0 && m < 1 lsl t.vars);
  Int64.logand (Int64.shift_right_logical t.bits m) 1L = 1L

let of_fun ~vars f =
  let acc = ref 0L in
  for m = (1 lsl vars) - 1 downto 0 do
    acc := Int64.shift_left !acc 1;
    if f m then acc := Int64.logor !acc 1L
  done;
  create ~vars !acc

let count_ones t =
  let rec loop bits acc =
    if Int64.equal bits 0L then acc
    else loop (Int64.logand bits (Int64.sub bits 1L)) (acc + 1)
  in
  loop t.bits 0

let is_const t = Int64.equal t.bits 0L || Int64.equal t.bits masks.(t.vars)

let cofactor t i v =
  assert (i >= 0 && i < t.vars);
  of_fun ~vars:t.vars (fun m ->
      let m' = if v then m lor (1 lsl i) else m land lnot (1 lsl i) in
      eval t m')

let depends_on t i = not (equal (cofactor t i false) (cofactor t i true))

let support_size t =
  let n = ref 0 in
  for i = 0 to t.vars - 1 do
    if depends_on t i then incr n
  done;
  !n

(* Swap inputs [i] and [j] (i < j) by mask-and-shift: the minterms with
   x_i = 1, x_j = 0 trade places with those with x_i = 0, x_j = 1, which sit
   [2^j - 2^i] slots higher; the rest stay put. *)
let[@inline] swap_bits bits i j =
  let pi = var_patterns.(i) and pj = var_patterns.(j) in
  let shift = (1 lsl j) - (1 lsl i) in
  let up = Int64.logand pi (Int64.lognot pj) in
  let down = Int64.logand (Int64.lognot pi) pj in
  Int64.logor
    (Int64.logand bits (Int64.lognot (Int64.logor up down)))
    (Int64.logor
       (Int64.shift_left (Int64.logand bits up) shift)
       (Int64.shift_right_logical (Int64.logand bits down) shift))

let permute t p =
  assert (Array.length p = t.vars);
  (* Old input i must end up at position p.(i). Fill positions 0, 1, ..
     by swapping the wanted input in from wherever it currently sits. *)
  let n = t.vars in
  let at = Array.init n (fun i -> i) (* position -> old input *) in
  let where = Array.init n (fun i -> i) (* old input -> position *) in
  let bits = ref t.bits in
  Array.iteri
    (fun old_i pos ->
      let cur = where.(old_i) in
      if cur <> pos then begin
        bits := swap_bits !bits (min cur pos) (max cur pos);
        let other = at.(pos) in
        at.(cur) <- other;
        where.(other) <- cur;
        at.(pos) <- old_i;
        where.(old_i) <- pos
      end)
    p;
  create ~vars:n !bits

let negate_input t i =
  assert (i >= 0 && i < t.vars);
  let p = var_patterns.(i) and shift = 1 lsl i in
  create ~vars:t.vars
    (Int64.logor
       (Int64.shift_right_logical (Int64.logand t.bits p) shift)
       (Int64.shift_left (Int64.logand t.bits (Int64.lognot p)) shift))

(* Replicate the table across the halves of inputs [from .. vars-1]. *)
let[@inline] replicate bits ~from ~vars =
  let bits = ref bits in
  for v = from to vars - 1 do
    bits := Int64.logor !bits (Int64.shift_left !bits (1 lsl v))
  done;
  !bits

let expand t ~vars =
  assert (vars >= t.vars && vars <= max_vars);
  create ~vars (replicate t.bits ~from:t.vars ~vars)

let is_positive_unate_in t i =
  if not (depends_on t i) then true
  else begin
    let ok = ref true in
    for m = 0 to (1 lsl t.vars) - 1 do
      if m land (1 lsl i) = 0 then
        if eval t m && not (eval t (m lor (1 lsl i))) then ok := false
    done;
    !ok
  end

let is_monotone t =
  let ok = ref true in
  for i = 0 to t.vars - 1 do
    if not (is_positive_unate_in t i) then ok := false
  done;
  !ok

let pp ppf t = Format.fprintf ppf "0x%Lx/%d vars" t.bits t.vars

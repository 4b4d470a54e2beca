type transform = { perm : int array; input_neg : int; output_neg : bool }

let identity n = { perm = Array.init n (fun i -> i); input_neg = 0; output_neg = false }

let apply f t =
  let g = ref (Truthtable.permute f t.perm) in
  for i = 0 to Truthtable.vars f - 1 do
    if t.input_neg land (1 lsl i) <> 0 then g := Truthtable.negate_input !g i
  done;
  if t.output_neg then Truthtable.lognot !g else !g

let permutations n =
  let rec insert_everywhere x = function
    | [] -> [ [ x ] ]
    | y :: ys as l ->
        (x :: l) :: List.map (fun r -> y :: r) (insert_everywhere x ys)
  in
  let rec perms = function
    | [] -> [ [] ]
    | x :: xs -> List.concat_map (insert_everywhere x) (perms xs)
  in
  List.map Array.of_list (perms (List.init n (fun i -> i)))

let all_transforms n =
  let perms = permutations n in
  List.concat_map
    (fun perm ->
      List.concat_map
        (fun output_neg ->
          List.init (1 lsl n) (fun input_neg -> { perm; input_neg; output_neg }))
        [ false; true ])
    perms

(* The transform lists only depend on the input count; built eagerly so any
   domain can read them. *)
let transform_cache = Array.init 5 (fun n -> Array.of_list (all_transforms n))

let transforms n =
  assert (n >= 0 && n <= 4);
  transform_cache.(n)

let popcount =
  let rec loop x acc = if x = 0 then acc else loop (x land (x - 1)) (acc + 1) in
  fun x -> loop x 0

let negation_cost t = popcount t.input_neg + if t.output_neg then 1 else 0

let best_match ~target ~candidate =
  let n = Truthtable.vars target in
  assert (Truthtable.vars candidate = n);
  let best = ref None in
  let consider t =
    if Truthtable.equal (apply candidate t) target then
      match !best with
      | Some b when negation_cost b <= negation_cost t -> ()
      | _ -> best := Some t
  in
  Array.iter consider (transforms n);
  !best

module Itbl = Hashtbl.Make (Int)

let best_matches candidate =
  let vars = Truthtable.vars candidate in
  (* keyed by the target's bits: at most 16 of them for [vars <= 4] *)
  let best = Itbl.create 64 in
  let consider t =
    let target = Int64.to_int (Truthtable.bits (apply candidate t)) in
    match Itbl.find_opt best target with
    | Some b when negation_cost b <= negation_cost t -> ()
    | _ -> Itbl.replace best target t
  in
  Array.iter consider (transforms vars);
  Itbl.fold
    (fun bits t acc -> (Truthtable.create ~vars (Int64.of_int bits), t) :: acc)
    best []

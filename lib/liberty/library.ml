module Tt = Gap_logic.Truthtable
module Npn = Gap_logic.Npn
module Itbl = Hashtbl.Make (Int)

type t = {
  name : string;
  tech : Gap_tech.Tech.t;
  cells : Cell.t array;
  matches : (Cell.t * Npn.transform) array Itbl.t;
      (* keyed by [match_key] of the target function *)
  by_base : (string, Cell.t list) Hashtbl.t;
}

(* Tables of at most 4 inputs fit in 16 bits; the input count goes above. *)
let match_key ~vars bits = (vars lsl 16) lor bits

(* Every target function reached by some combinational cell, with the cells
   (and their minimum-negation wirings) that realize it. Each distinct cell
   function is expanded over its transforms once. Cells are prepended in
   [cells] order, so every entry lists them in reverse library order. *)
let build_matches cells =
  let lists = Itbl.create 256 in
  let expanded = Hashtbl.create 32 in
  Array.iter
    (fun (c : Cell.t) ->
      if c.kind = Comb && c.n_inputs <= 4 then begin
        let key = (Tt.vars c.func, Tt.bits c.func) in
        let targets =
          match Hashtbl.find_opt expanded key with
          | Some ts -> ts
          | None ->
              let ts = Npn.best_matches c.func in
              Hashtbl.replace expanded key ts;
              ts
        in
        List.iter
          (fun (f, tf) ->
            let k = match_key ~vars:(Tt.vars f) (Int64.to_int (Tt.bits f)) in
            let existing = Option.value ~default:[] (Itbl.find_opt lists k) in
            Itbl.replace lists k ((c, tf) :: existing))
          targets
      end)
    cells;
  let matches = Itbl.create (Itbl.length lists) in
  Itbl.iter (fun k l -> Itbl.replace matches k (Array.of_list l)) lists;
  matches

let make ~name ~tech cell_list =
  let cells = Array.of_list cell_list in
  let by_base = Hashtbl.create 64 in
  let add_to tbl key cell =
    let existing = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
    Hashtbl.replace tbl key (cell :: existing)
  in
  Array.iter (fun (c : Cell.t) -> add_to by_base c.base c) cells;
  (* Sort the drive ladders once. *)
  Hashtbl.iter
    (fun base cs ->
      Hashtbl.replace by_base base
        (List.sort (fun (a : Cell.t) b -> Float.compare a.drive b.drive) cs))
    (Hashtbl.copy by_base);
  { name; tech; cells; matches = build_matches cells; by_base }

let name t = t.name
let tech t = t.tech
let cells t = t.cells
let size t = Array.length t.cells

let drives_of t base = Option.value ~default:[] (Hashtbl.find_opt t.by_base base)

let find t ~base ~drive =
  List.find_opt (fun (c : Cell.t) -> Float.abs (c.drive -. drive) < 1e-9) (drives_of t base)

let bases t =
  Hashtbl.fold (fun base _ acc -> base :: acc) t.by_base []
  |> List.sort_uniq String.compare

let no_matches = [||]

let matches_bits t ~vars bits =
  if vars > 4 then no_matches
  else Option.value ~default:no_matches (Itbl.find_opt t.matches (match_key ~vars bits))

let matches t f = matches_bits t ~vars:(Tt.vars f) (Int64.to_int (Tt.bits f))

let cells_matching t f = Array.to_list (Array.map fst (matches t f))

let inverters t =
  Array.to_list t.cells |> List.filter Cell.is_inverter
  |> List.sort (fun (a : Cell.t) b -> Float.compare a.drive b.drive)

let buffers t =
  Array.to_list t.cells |> List.filter Cell.is_buffer
  |> List.sort (fun (a : Cell.t) b -> Float.compare a.drive b.drive)

let smallest_inverter t =
  match inverters t with [] -> raise Not_found | c :: _ -> c

let flops t =
  Array.to_list t.cells
  |> List.filter (fun (c : Cell.t) -> match c.kind with Flop _ -> true | _ -> false)
  |> List.sort (fun (a : Cell.t) b -> Float.compare a.drive b.drive)

let smallest_flop t = match flops t with [] -> raise Not_found | c :: _ -> c

let neighbours t (cell : Cell.t) =
  let arr = Array.of_list (drives_of t cell.base) in
  let idx = ref (-1) in
  Array.iteri (fun i (c : Cell.t) -> if c.name = cell.name then idx := i) arr;
  if !idx < 0 then (None, None)
  else
    ( (if !idx > 0 then Some arr.(!idx - 1) else None),
      if !idx < Array.length arr - 1 then Some arr.(!idx + 1) else None )

let next_drive_up t cell = snd (neighbours t cell)
let next_drive_down t cell = fst (neighbours t cell)

let pp_summary ppf t =
  let n_bases = List.length (bases t) in
  Format.fprintf ppf "library %s: %d cells, %d bases, tech %s" t.name
    (Array.length t.cells) n_bases (Gap_tech.Tech.(t.tech.name))

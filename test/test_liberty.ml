(* Tests for Gap_liberty: delay model, cells, library lookups, generation. *)

module DM = Gap_liberty.Delay_model
module Cell = Gap_liberty.Cell
module Library = Gap_liberty.Library
module Libgen = Gap_liberty.Libgen
module Tech = Gap_tech.Tech

let tech = Tech.asic_025um
let rich = lazy (Libgen.make tech Libgen.rich)
let poor = lazy (Libgen.make tech Libgen.poor)
let domino = lazy (Libgen.make tech Libgen.domino)

let check_close msg tol expected actual = Alcotest.(check (float tol)) msg expected actual

let test_fo4_calibration () =
  List.iter
    (fun t ->
      let model = DM.of_tech t in
      check_close ("FO4 roundtrip " ^ t.Tech.name) 1e-6 (Tech.fo4_ps t) (DM.fo4_ps model))
    Tech.all_presets

let test_delay_monotone_in_load () =
  let lib = Lazy.force rich in
  Array.iter
    (fun (c : Cell.t) ->
      if c.Cell.kind = Cell.Comb then
        Alcotest.(check bool)
          ("monotone " ^ c.Cell.name)
          true
          (Cell.delay_ps c ~load_ff:20. > Cell.delay_ps c ~load_ff:2.))
    (Library.cells lib)

let test_bigger_drive_is_faster_under_load () =
  let lib = Lazy.force rich in
  let x1 = Option.get (Library.find lib ~base:"NAND2" ~drive:1.) in
  let x8 = Option.get (Library.find lib ~base:"NAND2" ~drive:8.) in
  Alcotest.(check bool) "x8 beats x1 at heavy load" true
    (Cell.delay_ps x8 ~load_ff:100. < Cell.delay_ps x1 ~load_ff:100.);
  Alcotest.(check bool) "x8 has more input cap" true (x8.Cell.input_cap_ff > x1.Cell.input_cap_ff);
  Alcotest.(check bool) "x8 larger" true (x8.Cell.area_um2 > x1.Cell.area_um2)

let test_library_lookups () =
  let lib = Lazy.force rich in
  let ladder = Library.drives_of lib "INV" in
  Alcotest.(check int) "9 inverter sizes" 9 (List.length ladder);
  let drives = List.map (fun (c : Cell.t) -> c.Cell.drive) ladder in
  Alcotest.(check (list (float 1e-9))) "sorted ascending" (List.sort compare drives) drives;
  Alcotest.(check bool) "find missing" true (Library.find lib ~base:"NAND9" ~drive:1. = None)

let test_drive_ladder_navigation () =
  let lib = Lazy.force rich in
  let x2 = Option.get (Library.find lib ~base:"INV" ~drive:2.) in
  let up = Option.get (Library.next_drive_up lib x2) in
  let down = Option.get (Library.next_drive_down lib x2) in
  check_close "up is 3" 1e-9 3. up.Cell.drive;
  check_close "down is 1" 1e-9 1. down.Cell.drive;
  let x16 = Option.get (Library.find lib ~base:"INV" ~drive:16.) in
  Alcotest.(check bool) "top has no up" true (Library.next_drive_up lib x16 = None)

let test_npn_class_lookup () =
  let lib = Lazy.force rich in
  let vars = 2 in
  let and2 =
    Gap_logic.Truthtable.logand (Gap_logic.Truthtable.var ~vars 0)
      (Gap_logic.Truthtable.var ~vars 1)
  in
  let matches = Library.cells_matching lib and2 in
  let bases = List.sort_uniq compare (List.map (fun (c : Cell.t) -> c.Cell.base) matches) in
  Alcotest.(check bool) "AND2 in class" true (List.mem "AND2" bases);
  Alcotest.(check bool) "NAND2 in class (output-negated)" true (List.mem "NAND2" bases);
  Alcotest.(check bool) "NOR2 in class (input-negated)" true (List.mem "NOR2" bases)

(* The match table against a direct scan: for every target, the comb cells
   of the target's input count in reverse library order, each with the
   transform [Npn.best_match] picks, and nothing else. *)
let all_libs =
  lazy
    (List.map (Libgen.make tech)
       [ Libgen.rich; Libgen.poor; Libgen.typical; Libgen.domino; Libgen.custom ])

let scan_matches lib f =
  Array.to_list (Library.cells lib)
  |> List.filter_map (fun (c : Cell.t) ->
         if c.kind = Cell.Comb && c.n_inputs = Gap_logic.Truthtable.vars f then
           Gap_logic.Npn.best_match ~target:f ~candidate:c.func
           |> Option.map (fun t -> (c, t))
         else None)
  |> List.rev

let table_agrees lib f =
  let same ((c : Cell.t), t) ((c' : Cell.t), t') = c == c' && t = t' in
  let got = Array.to_list (Library.matches lib f) and want = scan_matches lib f in
  List.length got = List.length want && List.for_all2 same got want

let test_match_table_small_functions () =
  List.iter
    (fun lib ->
      for vars = 1 to 3 do
        for bits = 0 to (1 lsl (1 lsl vars)) - 1 do
          let f = Gap_logic.Truthtable.create ~vars (Int64.of_int bits) in
          if not (table_agrees lib f) then
            Alcotest.failf "%s: match table disagrees with best_match on %a"
              (Library.name lib) Gap_logic.Truthtable.pp f
        done
      done)
    (Lazy.force all_libs)

(* Random 4-input targets: half uniformly random (mostly unmatched), half a
   random transform of some library's 4-input cell function (always
   matched). *)
let four_input_cell_funcs =
  lazy
    (List.concat_map
       (fun lib ->
         Array.to_list (Library.cells lib)
         |> List.filter_map (fun (c : Cell.t) ->
                if c.kind = Cell.Comb && c.n_inputs = 4 then Some c.func else None))
       (Lazy.force all_libs)
    |> Array.of_list)

let match_table_four_inputs =
  QCheck.Test.make ~name:"match table = best_match (4 inputs)" ~count:60
    (QCheck.make
       ~print:(fun (_, bits, _, _) -> Int64.to_string bits)
       QCheck.Gen.(quad bool int64 (int_bound 1_000_000) (int_bound 767)))
    (fun (uniform, bits, cell_idx, tf_idx) ->
      let f =
        if uniform then Gap_logic.Truthtable.create ~vars:4 bits
        else
          let funcs = Lazy.force four_input_cell_funcs in
          let tf =
            {
              Gap_logic.Npn.perm = List.nth (Gap_logic.Npn.permutations 4) (tf_idx mod 24);
              input_neg = tf_idx / 24 mod 16;
              output_neg = tf_idx >= 384;
            }
          in
          Gap_logic.Npn.apply funcs.(cell_idx mod Array.length funcs) tf
      in
      List.for_all (fun lib -> table_agrees lib f) (Lazy.force all_libs))

let test_inverter_buffer_identification () =
  let lib = Lazy.force rich in
  Alcotest.(check bool) "has inverters" true (Library.inverters lib <> []);
  Alcotest.(check bool) "has buffers" true (Library.buffers lib <> []);
  let inv = Library.smallest_inverter lib in
  Alcotest.(check bool) "is inverter" true (Cell.is_inverter inv);
  Alcotest.(check bool) "not buffer" false (Cell.is_buffer inv);
  check_close "smallest" 1e-9 0.5 inv.Cell.drive

let test_poor_library_shape () =
  let lib = Lazy.force poor in
  Alcotest.(check bool) "no buffers" true (Library.buffers lib = []);
  Alcotest.(check int) "two INV drives" 2 (List.length (Library.drives_of lib "INV"));
  Alcotest.(check bool) "no XOR cell" true (Library.drives_of lib "XOR2" = []);
  Alcotest.(check bool) "no AND cell (single polarity)" true (Library.drives_of lib "AND2" = []);
  Alcotest.(check bool) "smaller than rich" true (Library.size lib < Library.size (Lazy.force rich))

let test_domino_library_monotone () =
  let lib = Lazy.force domino in
  Array.iter
    (fun (c : Cell.t) ->
      match c.Cell.family with
      | Cell.Domino ->
          Alcotest.(check bool)
            ("domino cell monotone: " ^ c.Cell.name)
            true
            (Gap_logic.Truthtable.is_monotone c.Cell.func)
      | Cell.Static_cmos -> ())
    (Library.cells lib);
  (* the support inverter is static and full-speed *)
  let inv = Library.smallest_inverter lib in
  Alcotest.(check bool) "inverter static" true (inv.Cell.family = Cell.Static_cmos)

let test_domino_speedup () =
  let s = Lazy.force rich and d = Lazy.force domino in
  let sc = Option.get (Library.find s ~base:"AND2" ~drive:2.) in
  let dc = Option.get (Library.find d ~base:"AND2" ~drive:2.) in
  let ratio = Cell.delay_ps sc ~load_ff:10. /. Cell.delay_ps dc ~load_ff:10. in
  check_close "1.75x faster" 1e-6 1.75 ratio

let test_flop_styles () =
  let asic_flop = Library.smallest_flop (Lazy.force rich) in
  let custom_lib = Libgen.make tech Libgen.custom in
  let custom_flop = Library.smallest_flop custom_lib in
  let t c = Option.get (Cell.seq_timing c) in
  Alcotest.(check bool) "asic flop slower"
    true
    ((t asic_flop).Cell.setup_ps +. (t asic_flop).Cell.clk_to_q_ps
    > (t custom_flop).Cell.setup_ps +. (t custom_flop).Cell.clk_to_q_ps);
  Alcotest.(check bool) "flop is sequential" true (Cell.is_sequential asic_flop);
  check_close "asic overhead = 2.5 FO4" 1e-6
    (2.5 *. Tech.fo4_ps tech)
    ((t asic_flop).Cell.setup_ps +. (t asic_flop).Cell.clk_to_q_ps)

let test_templates_exposed () =
  let rich_t = Libgen.templates Libgen.rich in
  let poor_t = Libgen.templates Libgen.poor in
  Alcotest.(check bool) "rich has more gate types" true (List.length rich_t > List.length poor_t);
  Alcotest.(check bool) "poor has NAND2" true
    (List.exists (fun (b, _, _, _) -> b = "NAND2") poor_t);
  (* logical efforts are sane: INV has g=1, everything else >= 1 *)
  List.iter
    (fun (base, _, g, p) ->
      Alcotest.(check bool) (base ^ " g >= 1") true (g >= 1.0 -. 1e-9);
      Alcotest.(check bool) (base ^ " p >= 1") true (p >= 1.0 -. 1e-9))
    rich_t

let test_profile_builders () =
  let p = Libgen.with_drives Libgen.rich [ 1.; 2. ] in
  Alcotest.(check int) "drives replaced" 2 (List.length p.Libgen.drives);
  let p2 = Libgen.with_speed_factor Libgen.domino 2.0 in
  check_close "speed factor" 1e-9 2.0 p2.Libgen.speed_factor;
  let p3 = Libgen.with_name Libgen.rich "frobnitz" in
  Alcotest.(check string) "renamed" "frobnitz" p3.Libgen.profile_name

let test_cell_count_consistency () =
  let lib = Lazy.force rich in
  (* every cell is findable through its own base/drive *)
  Array.iter
    (fun (c : Cell.t) ->
      match Library.find lib ~base:c.Cell.base ~drive:c.Cell.drive with
      | Some found -> Alcotest.(check string) "found itself" c.Cell.name found.Cell.name
      | None -> Alcotest.fail ("cell not findable: " ^ c.Cell.name))
    (Library.cells lib)

(* --- liberty export --- *)

let test_function_strings () =
  let nand2 = Option.get (Library.find (Lazy.force rich) ~base:"NAND2" ~drive:1.) in
  let and2 = Option.get (Library.find (Lazy.force rich) ~base:"AND2" ~drive:1.) in
  Alcotest.(check string) "nand2 rendered via complement" "!((A B))"
    (Gap_liberty.Liberty_io.function_string nand2);
  Alcotest.(check string) "and2 direct" "(A B)"
    (Gap_liberty.Liberty_io.function_string and2)

let test_liberty_write_shape () =
  let lib = Lazy.force rich in
  let s = Gap_liberty.Liberty_io.write lib in
  let contains sub =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "library header" true (contains "library (");
  Alcotest.(check bool) "has NAND2_X1" true (contains "cell (NAND2_X1)");
  Alcotest.(check bool) "has flop group" true (contains "ff (IQ)");
  Alcotest.(check bool) "timing arcs" true (contains "rise_resistance");
  (* every cell appears *)
  Array.iter
    (fun (c : Cell.t) ->
      Alcotest.(check bool) ("cell present " ^ c.Cell.name) true
        (contains (Printf.sprintf "cell (%s)" c.Cell.name)))
    (Library.cells lib);
  (* braces balance *)
  let opens = String.fold_left (fun acc ch -> if ch = '{' then acc + 1 else acc) 0 s in
  let closes = String.fold_left (fun acc ch -> if ch = '}' then acc + 1 else acc) 0 s in
  Alcotest.(check int) "balanced braces" opens closes

let test_function_string_semantics () =
  (* parse-free check: the SOP we emit must have the same minterm count *)
  let check_cell (c : Cell.t) =
    if c.Cell.kind = Cell.Comb then begin
      let s = Gap_liberty.Liberty_io.function_string c in
      Alcotest.(check bool) ("nonempty for " ^ c.Cell.name) true (String.length s > 0)
    end
  in
  Array.iter check_cell (Library.cells (Lazy.force rich))

let suite =
  [
    ("FO4 calibration across techs", `Quick, test_fo4_calibration);
    ("delay monotone in load", `Quick, test_delay_monotone_in_load);
    ("bigger drive faster under load", `Quick, test_bigger_drive_is_faster_under_load);
    ("library lookups", `Quick, test_library_lookups);
    ("drive ladder navigation", `Quick, test_drive_ladder_navigation);
    ("NPN class lookup", `Quick, test_npn_class_lookup);
    ("match table = best_match (1-3 in)", `Quick, test_match_table_small_functions);
    QCheck_alcotest.to_alcotest match_table_four_inputs;
    ("inverter/buffer identification", `Quick, test_inverter_buffer_identification);
    ("poor library shape", `Quick, test_poor_library_shape);
    ("domino library monotone", `Quick, test_domino_library_monotone);
    ("domino speedup factor", `Quick, test_domino_speedup);
    ("flop styles", `Quick, test_flop_styles);
    ("templates exposed", `Quick, test_templates_exposed);
    ("profile builders", `Quick, test_profile_builders);
    ("cells findable by base/drive", `Quick, test_cell_count_consistency);
    ("liberty function strings", `Quick, test_function_strings);
    ("liberty write shape", `Quick, test_liberty_write_shape);
    ("liberty function strings nonempty", `Quick, test_function_string_semantics);
  ]

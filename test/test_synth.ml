(* Tests for Gap_synth: cuts, balancing, mapping, sizing, buffering, flow.
   The load-bearing property throughout is functional equivalence: every
   transform must preserve the circuit's function. *)

module Aig = Gap_logic.Aig
module Cuts = Gap_synth.Cuts
module Tt = Gap_logic.Truthtable
module Netlist = Gap_netlist.Netlist
module Sim = Gap_netlist.Sim
module Sta = Gap_sta.Sta
module Library = Gap_liberty.Library
module Libgen = Gap_liberty.Libgen

let tech = Gap_tech.Tech.asic_025um
let rich = lazy (Libgen.make tech Libgen.rich)
let poor = lazy (Libgen.make tech Libgen.poor)
let typical = lazy (Libgen.make tech Libgen.typical)

(* netlist vs aig equivalence on random vectors *)
let netlist_matches_aig ?(vectors = 300) g nl =
  let rng = Gap_util.Rng.create ~seed:99L () in
  let n = Aig.num_inputs g in
  let ok = ref true in
  for _ = 1 to vectors do
    let ins = Array.init n (fun _ -> Gap_util.Rng.bool rng) in
    let want = Aig.eval g ins in
    let got = Sim.eval nl (Sim.initial nl) ins in
    if want <> got then ok := false
  done;
  !ok

(* --- cuts --- *)

let test_cuts_trivial_inputs () =
  let g = Aig.create () in
  let a = Aig.add_input g "a" and b = Aig.add_input g "b" in
  let ab = Aig.and_ g a b in
  Aig.add_output g "y" ab;
  let cuts = Cuts.enumerate g in
  let a_id = Aig.id_of_lit a in
  Alcotest.(check int) "input has only trivial cut" 1 (Array.length cuts.(a_id));
  let node_cuts = cuts.(Aig.id_of_lit ab) in
  Alcotest.(check bool) "and node has trivial + leaf cut" true (Array.length node_cuts >= 2)

(* Reference for [cut.bits]: the function of [root] over the cut leaves by a
   memoized recursive walk of the AIG, leaf [i] as input [i]. *)
let cut_function g root (cut : Cuts.cut) =
  let vars = Array.length cut.leaves in
  let leaf_index = Hashtbl.create 8 in
  Array.iteri (fun i leaf -> Hashtbl.replace leaf_index leaf i) cut.leaves;
  let memo = Hashtbl.create 64 in
  let rec of_node id =
    match Hashtbl.find_opt memo id with
    | Some tt -> tt
    | None ->
        let tt =
          match Hashtbl.find_opt leaf_index id with
          | Some i -> Tt.var ~vars i
          | None ->
              if id = 0 then Tt.const_false ~vars
              else if Aig.is_input g id then failwith "cut_function: cut does not cover root"
              else begin
                let a, b = Aig.fanins g id in
                Tt.logand (of_lit a) (of_lit b)
              end
        in
        Hashtbl.replace memo id tt;
        tt
  and of_lit l =
    let tt = of_node (Aig.id_of_lit l) in
    if Aig.is_compl l then Tt.lognot tt else tt
  in
  of_node root

let test_cut_function () =
  let g = Aig.create () in
  let a = Aig.add_input g "a" and b = Aig.add_input g "b" and c = Aig.add_input g "c" in
  let ab = Aig.and_ g a b in
  let abc = Aig.and_ g ab (Aig.negate c) in
  Aig.add_output g "y" abc;
  let leaves = [| Aig.id_of_lit a; Aig.id_of_lit b; Aig.id_of_lit c |] in
  let cuts = (Cuts.enumerate g).(Aig.id_of_lit abc) in
  match Array.find_opt (fun (c : Cuts.cut) -> c.leaves = leaves) cuts with
  | None -> Alcotest.fail "the input cut {a, b, c} was not enumerated"
  | Some cut ->
      for m = 0 to 7 do
        let bit i = m land (1 lsl i) <> 0 in
        Alcotest.(check bool) "cut function" (bit 0 && bit 1 && not (bit 2))
          ((cut.bits lsr m) land 1 = 1)
      done

(* Node values of [g] under every primary-input pattern, 64 patterns per
   word: [words.(w).(id)] bit [j] is node [id] under pattern [64 w + j]. *)
let node_words g =
  let n_in = Aig.num_inputs g in
  assert (n_in >= 6 && n_in <= 16);
  Array.init
    (1 lsl (n_in - 6))
    (fun w ->
      let v = Array.make (Aig.num_nodes g) 0L in
      let lit l = if Aig.is_compl l then Int64.lognot v.(Aig.id_of_lit l) else v.(Aig.id_of_lit l) in
      for id = 0 to Aig.num_nodes g - 1 do
        if Aig.is_and g id then begin
          let a, b = Aig.fanins g id in
          v.(id) <- Int64.logand (lit a) (lit b)
        end
        else
          match Aig.input_index g id with
          | Some i when i < 6 -> v.(id) <- Tt.bits (Tt.var ~vars:6 i)
          | Some i -> v.(id) <- (if (w lsr (i - 6)) land 1 = 1 then -1L else 0L)
          | None -> ()
      done;
      v)

(* The leaf minterms of [cut] some primary-input pattern produces. A cut can
   hold a leaf that lies in the cone of its other leaves; the minterms where
   that leaf disagrees with its cone are unreachable, and there the table is
   free to differ from the recursive reference. *)
let reachable_minterms words (cut : Cuts.cut) =
  let care = ref 0L in
  Array.iter
    (fun v ->
      for j = 0 to 63 do
        let m = ref 0 in
        Array.iteri
          (fun i leaf ->
            if Int64.logand (Int64.shift_right_logical v.(leaf) j) 1L = 1L then
              m := !m lor (1 lsl i))
          cut.leaves;
        care := Int64.logor !care (Int64.shift_left 1L !m)
      done)
    words;
  !care

(* Whether some leaf of [cut] lies in the cone of another leaf, i.e. is
   itself a function of other leaves of the cut. *)
let has_dependent_leaf g (cut : Cuts.cut) =
  let seen = Hashtbl.create 16 in
  let rec reaches_leaf id =
    Aig.is_and g id
    && (not (Hashtbl.mem seen id))
    &&
    (Hashtbl.add seen id ();
     let a, b = Aig.fanins g id in
     let below l =
       let c = Aig.id_of_lit l in
       Array.mem c cut.leaves || reaches_leaf c
     in
     below a || below b)
  in
  Array.exists
    (fun leaf ->
      Hashtbl.reset seen;
      reaches_leaf leaf)
    cut.leaves

(* Cuts of random logic whose table differs from the recursive reference:
   (cuts with independent leaves, cuts with a dependent leaf, cuts with a
   dependent leaf that differ on a reachable minterm). Only the last two
   may legitimately be non-zero, and only the second. *)
let table_mismatches ~k seed =
  let g =
    Gap_datapath.Random_logic.generate ~seed:(Int64.of_int seed) ~inputs:10 ~outputs:4
      ~gates:50 ()
  in
  let words = node_words g in
  let independent = ref 0 and dependent = ref 0 and reachable = ref 0 in
  Array.iteri
    (fun id cs ->
      Array.iter
        (fun (c : Cuts.cut) ->
          let reference = Tt.bits (cut_function g id c) in
          if not (Int64.equal (Int64.of_int c.bits) reference) then
            if not (has_dependent_leaf g c) then incr independent
            else begin
              incr dependent;
              let diff = Int64.logxor (Int64.of_int c.bits) reference in
              if not (Int64.equal (Int64.logand diff (reachable_minterms words c)) 0L) then
                incr reachable
            end)
        cs)
    (Cuts.enumerate ~k g);
  (!independent, !dependent, !reachable)

let cut_tables_match_reference =
  QCheck.Test.make ~name:"cuts: tables = recursive reference" ~count:40
    QCheck.(pair (int_range 0 10000) bool)
    (fun (seed, wide) ->
      let independent, _, reachable = table_mismatches ~k:(if wide then 5 else 4) seed in
      independent = 0 && reachable = 0)

(* Seed 5790 at k = 4 enumerates such a cut: {11, 12, 15, 24} at node 63,
   where leaf 24 lies in the cone of {11, 12, 15}. *)
let test_cut_with_dependent_leaf () =
  let independent, dependent, reachable = table_mismatches ~k:4 5790 in
  Alcotest.(check int) "cuts with independent leaves match exactly" 0 independent;
  Alcotest.(check bool) "the seed has a dependent-leaf cut that differs" true (dependent > 0);
  Alcotest.(check int) "tables agree on every reachable minterm" 0 reachable

let test_cuts_k_bound () =
  let g = Gap_datapath.Adders.ripple_adder 8 in
  let cuts = Cuts.enumerate ~k:4 g in
  Array.iter (Array.iter (fun c -> Alcotest.(check bool) "cut <= 4 leaves" true (Cuts.size c <= 4))) cuts

(* The list-based enumerator that bounded-array enumeration replaced, kept
   as the reference for it: [Cuts.enumerate] must keep the same cuts in the
   same order, since the mapper's DP breaks ties by cut order. It lifts the
   child tables minterm by minterm and counts the insertions that overflow
   [per_node] (the re-sort path). *)
module Ref_cuts = struct
  type cut = { leaves : int array; tt : Tt.t }

  let overflows = ref 0
  let unit_tt = Tt.var ~vars:1 0
  let trivial n = { leaves = [| n |]; tt = unit_tt }
  let size c = Array.length c.leaves

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

  (* [f] over [vars] inputs, its input [i] moved to position [pos.(i)] *)
  let stretch f ~vars pos =
    Tt.of_fun ~vars (fun m ->
        let old_m = ref 0 in
        Array.iteri
          (fun i p -> if m land (1 lsl p) <> 0 then old_m := !old_m lor (1 lsl i))
          pos;
        Tt.eval f !old_m)

  let lift c compl_ leaves =
    let pos = Array.make (size c) 0 in
    let o = ref 0 in
    for i = 0 to size c - 1 do
      while leaves.(!o) <> c.leaves.(i) do
        incr o
      done;
      pos.(i) <- !o
    done;
    let t = stretch c.tt ~vars:(Array.length leaves) pos in
    if compl_ then Tt.lognot t else t

  let subset a b =
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

  let insert_cut per_node cuts c =
    let survivors = List.filter (fun e -> not (subset c.leaves e.leaves)) cuts in
    let cuts = c :: survivors in
    if List.length cuts <= per_node then cuts
    else begin
      incr overflows;
      let sorted = List.sort (fun a b -> Int.compare (size a) (size b)) cuts in
      let rec take n = function
        | [] -> []
        | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
      in
      take per_node sorted
    end

  let enumerate ~k ~per_node g =
    let n = Aig.num_nodes g in
    let cuts = Array.make n [] in
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
                    let tt = Tt.logand (lift ca ca_compl leaves) (lift cb cb_compl leaves) in
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
end

(* Whether the two enumerations keep the same cuts, in the same order, with
   the same tables. *)
let same_enumeration (got : Cuts.cut array array) (want : Ref_cuts.cut list array) =
  let same (c : Cuts.cut) (r : Ref_cuts.cut) =
    c.leaves = r.leaves
    && Tt.vars r.tt = Cuts.size c
    && Int64.equal (Int64.of_int c.bits) (Tt.bits r.tt)
  in
  Array.length got = Array.length want
  && Array.for_all2
       (fun cs rs -> Array.length cs = List.length rs && List.for_all2 same (Array.to_list cs) rs)
       got want

let cuts_match_list_reference =
  QCheck.Test.make ~name:"cuts: bounded arrays = list reference" ~count:300
    QCheck.(quad (int_range 0 100000) (int_range 2 5) (int_range 1 12) (int_range 5 60))
    (fun (seed, k, per_node, gates) ->
      let g =
        Gap_datapath.Random_logic.generate ~seed:(Int64.of_int seed) ~inputs:8 ~outputs:3
          ~gates ()
      in
      same_enumeration (Cuts.enumerate ~k ~per_node g) (Ref_cuts.enumerate ~k ~per_node g))

(* A balanced array multiplier has many more feasible cuts per node than
   [per_node] keeps, so the re-sort path runs on most nodes. *)
let test_cuts_overflow_matches_reference () =
  let g = Gap_synth.Balance.balance (Gap_datapath.Multiplier.array_multiplier ~width:6) in
  List.iter
    (fun per_node ->
      Ref_cuts.overflows := 0;
      let want = Ref_cuts.enumerate ~k:4 ~per_node g in
      Alcotest.(check bool) "the reference overflows" true (!Ref_cuts.overflows > 0);
      Alcotest.(check bool)
        (Printf.sprintf "per_node %d: same cuts, order and tables" per_node)
        true
        (same_enumeration (Cuts.enumerate ~k:4 ~per_node g) want))
    [ 1; 3; 6; 10 ]

(* Tables are immediate ints of at most 32 bits. *)
let test_cuts_k_above_5_rejected () =
  let g = Gap_datapath.Adders.ripple_adder 4 in
  Alcotest.check_raises "k = 6" (Invalid_argument "Cuts.enumerate: k outside 1..5") (fun () ->
      ignore (Cuts.enumerate ~k:6 g))

(* --- balance --- *)

let test_balance_chain_depth () =
  (* a long AND chain balances to log depth *)
  let g = Aig.create () in
  let inputs = Array.init 16 (fun i -> Aig.add_input g (Printf.sprintf "x%d" i)) in
  let acc = Array.fold_left (fun acc l -> Aig.and_ g acc l) Aig.lit_true inputs in
  Aig.add_output g "y" acc;
  Alcotest.(check int) "chain depth" 15 (Aig.depth g);
  let b = Gap_synth.Balance.balance g in
  Alcotest.(check int) "balanced depth" 4 (Aig.depth b);
  let rng = Gap_util.Rng.create () in
  Alcotest.(check bool) "equivalent" true (Aig.equivalent_random g b rng)

let balance_preserves_function =
  QCheck.Test.make ~name:"balance preserves random logic" ~count:30
    QCheck.(int_range 0 10000)
    (fun seed ->
      let g =
        Gap_datapath.Random_logic.generate ~seed:(Int64.of_int seed) ~inputs:12
          ~outputs:6 ~gates:150 ()
      in
      let b = Gap_synth.Balance.balance g in
      let rng = Gap_util.Rng.create () in
      Aig.depth b <= Aig.depth g + 1 && Aig.equivalent_random g b rng)

let test_balance_preserves_adder () =
  let g = Gap_datapath.Adders.cla_adder 12 in
  let b = Gap_synth.Balance.balance g in
  let rng = Gap_util.Rng.create () in
  Alcotest.(check bool) "adder equivalent after balance" true (Aig.equivalent_random g b rng)

(* --- mapper --- *)

let test_mapper_equivalence_rich () =
  let g = Gap_datapath.Adders.cla_adder 10 in
  let nl = Gap_synth.Mapper.map_aig ~lib:(Lazy.force rich) g in
  Alcotest.(check bool) "mapped = aig (rich)" true (netlist_matches_aig g nl);
  Alcotest.(check bool) "clean" true (Gap_netlist.Check.is_clean nl)

let test_mapper_equivalence_poor () =
  let g = Gap_datapath.Multiplier.array_multiplier ~width:5 in
  let nl = Gap_synth.Mapper.map_aig ~lib:(Lazy.force poor) g in
  Alcotest.(check bool) "mapped = aig (poor, NAND/NOR/INV only)" true (netlist_matches_aig g nl)

let test_mapper_area_mode () =
  let g = Gap_datapath.Adders.kogge_stone_adder 12 in
  let d = Gap_synth.Mapper.map_aig ~lib:(Lazy.force rich) ~mode:Gap_synth.Mapper.Delay g in
  let a = Gap_synth.Mapper.map_aig ~lib:(Lazy.force rich) ~mode:Gap_synth.Mapper.Area g in
  Alcotest.(check bool) "area mode equivalent" true (netlist_matches_aig g a);
  Alcotest.(check bool) "area mode not larger" true
    (Netlist.area_um2 a <= Netlist.area_um2 d +. 1e-6);
  let ds = Sta.analyze d and als = Sta.analyze a in
  Alcotest.(check bool) "delay mode not slower" true
    (ds.Sta.min_period_ps <= als.Sta.min_period_ps +. 1e-6)

let mapper_random_equivalence =
  QCheck.Test.make ~name:"mapper preserves random logic" ~count:15
    QCheck.(int_range 0 10000)
    (fun seed ->
      let g =
        Gap_datapath.Random_logic.generate ~seed:(Int64.of_int seed) ~inputs:10
          ~outputs:5 ~gates:120 ()
      in
      let nl = Gap_synth.Mapper.map_aig ~lib:(Lazy.force typical) g in
      netlist_matches_aig ~vectors:100 g nl)

let test_mapper_constant_outputs () =
  let g = Aig.create () in
  let a = Aig.add_input g "a" in
  Aig.add_output g "zero" (Aig.and_ g a (Aig.negate a));
  Aig.add_output g "one" Aig.lit_true;
  Aig.add_output g "pass" a;
  Aig.add_output g "inv" (Aig.negate a);
  let nl = Gap_synth.Mapper.map_aig ~lib:(Lazy.force rich) g in
  Alcotest.(check bool) "constants and wires map" true (netlist_matches_aig ~vectors:4 g nl)

let test_mapper_two_pass () =
  let g = Gap_datapath.Adders.kogge_stone_adder 16 in
  let one = Gap_synth.Mapper.map_aig ~lib:(Lazy.force rich) ~passes:1 g in
  let two = Gap_synth.Mapper.map_aig ~lib:(Lazy.force rich) ~passes:2 g in
  Alcotest.(check bool) "two-pass equivalent" true (netlist_matches_aig g two);
  let p1 = (Sta.analyze one).Sta.min_period_ps in
  let p2 = (Sta.analyze two).Sta.min_period_ps in
  (* load feedback should not make things meaningfully worse *)
  Alcotest.(check bool) "two-pass within 5% or better" true (p2 <= p1 *. 1.05)

let test_mapper_estimate_positive () =
  let g = Gap_datapath.Adders.ripple_adder 8 in
  let est = Gap_synth.Mapper.estimated_arrival_ps ~lib:(Lazy.force rich) g in
  Alcotest.(check bool) "estimate positive" true (est > 0.)

(* --- sizing --- *)

let test_tilos_never_worsens () =
  let g = Gap_datapath.Adders.ripple_adder 12 in
  let nl = Gap_synth.Mapper.map_aig ~lib:(Lazy.force rich) g in
  let before = (Sta.analyze nl).Sta.min_period_ps in
  let r = Gap_synth.Sizing.tilos nl in
  Alcotest.(check bool) "no regression" true (r.Gap_synth.Sizing.final_period_ps <= before +. 1e-6);
  Alcotest.(check bool) "equivalent after sizing" true (netlist_matches_aig g nl)

let test_tilos_gains_under_wire_load () =
  let g = Gap_datapath.Adders.cla_adder 12 in
  let nl = Gap_synth.Mapper.map_aig ~lib:(Lazy.force rich) g in
  Gap_synth.Sizing.set_all_drives nl ~drive:1.;
  (* hang a fat wire on a critical net *)
  let sta = Sta.analyze nl in
  let victim =
    List.find_map (fun (s : Sta.step) -> if s.Sta.inst <> None then Some s.Sta.net else None)
      sta.Sta.critical.Sta.steps
  in
  (match victim with Some net -> Netlist.set_wire_cap_ff nl net 150. | None -> ());
  let before = (Sta.analyze nl).Sta.min_period_ps in
  let r = Gap_synth.Sizing.tilos nl in
  Alcotest.(check bool) "sizing helps with wire load" true
    (r.Gap_synth.Sizing.final_period_ps < before -. 1.);
  Alcotest.(check bool) "moves made" true (r.Gap_synth.Sizing.moves > 0)

(* TILOS as it stood when every iteration re-analysed the netlist the
   previous move had already timed: one analysis up front, then two per
   accepted move (the acceptance check, then the top of the loop). Also
   says whether the run ended on a reverted move. *)
let move_gain nl inst (old_c : Gap_liberty.Cell.t) (new_c : Gap_liberty.Cell.t) =
  let load = Netlist.net_load_ff nl (Netlist.out_net nl inst) in
  let d_self =
    Gap_liberty.Cell.delay_ps new_c ~load_ff:load -. Gap_liberty.Cell.delay_ps old_c ~load_ff:load
  in
  let d_cin = new_c.input_cap_ff -. old_c.input_cap_ff in
  let worst_upstream = ref 0. in
  Netlist.iter_fanins nl inst (fun fnet ->
      match Netlist.driver_of nl fnet with
      | Netlist.From_cell d ->
          let slow = (Netlist.cell_of nl d).drive_res_kohm *. d_cin in
          if slow > !worst_upstream then worst_upstream := slow
      | Netlist.From_input _ | Netlist.From_const _ | Netlist.Undriven -> ());
  d_self +. !worst_upstream

let tilos_two_analyses ?(config = Sta.default_config) ?max_moves nl =
  let lib = Netlist.lib nl in
  let max_moves =
    match max_moves with Some m -> m | None -> 4 * max 1 (Netlist.num_instances nl)
  in
  let initial = (Sta.analyze ~config nl).Sta.min_period_ps in
  let rec loop moves current_period =
    if moves >= max_moves then (moves, current_period, false)
    else begin
      let sta = Sta.analyze ~config nl in
      let candidates =
        List.filter_map
          (fun (s : Sta.step) ->
            match s.inst with
            | Some i when not (Netlist.is_flop nl i) -> (
                let c = Netlist.cell_of nl i in
                match Library.next_drive_up lib c with
                | Some up -> Some (i, up, move_gain nl i c up)
                | None -> None)
            | Some _ | None -> None)
          sta.Sta.critical.steps
      in
      let best =
        List.fold_left
          (fun acc (i, up, gain) ->
            match acc with Some (_, _, g) when g <= gain -> acc | _ -> Some (i, up, gain))
          None candidates
      in
      match best with
      | Some (i, up, gain) when gain < -1e-9 ->
          Netlist.replace_cell nl i up;
          let period = (Sta.analyze ~config nl).Sta.min_period_ps in
          if period > current_period +. 1e-9 then begin
            (match Library.next_drive_down lib (Netlist.cell_of nl i) with
            | Some down -> Netlist.replace_cell nl i down
            | None -> ());
            (moves, current_period, true)
          end
          else loop (moves + 1) period
      | _ -> (moves, current_period, false)
    end
  in
  let moves, final, reverted = loop 0 initial in
  ({ Gap_synth.Sizing.moves; initial_period_ps = initial; final_period_ps = final }, reverted)

let cells_of nl = List.init (Netlist.num_instances nl) (fun i -> (Netlist.cell_of nl i).name)

(* Full analyses ([sta.analyze] spans) and incremental updates run by [f]. *)
let sta_calls f =
  let sink = Gap_obs.Obs.recorder () in
  let r = Gap_obs.Obs.with_sink sink f in
  let calls =
    List.fold_left
      (fun acc (s : Gap_obs.Obs.span_stats) ->
        if String.equal s.name "sta.analyze" then acc + s.calls else acc)
      0 (Gap_obs.Obs.spans sink)
  in
  (r, calls, Gap_obs.Obs.counter_value sink "sta.incremental.updates")

(* Random mapped logic at uniform X1 with fat wires hung on random nets, so
   runs differ in length; a low move cap on some seeds stops TILOS early.
   TILOS times the netlist in full once, then once incrementally per move
   tried (accepted, or reverted at the end). *)
let tilos_matches_two_analysis_reference =
  QCheck.Test.make ~name:"tilos = two-analysis reference, 1 + moves timings, one in full"
    ~count:30
    QCheck.(int_bound 10_000)
    (fun seed ->
      let g =
        Gap_datapath.Random_logic.generate ~seed:(Int64.of_int seed) ~inputs:8 ~outputs:4
          ~gates:60 ()
      in
      let nl = Gap_synth.Mapper.map_aig ~lib:(Lazy.force rich) g in
      Gap_synth.Sizing.set_all_drives nl ~drive:1.;
      let rng = Gap_util.Rng.create ~seed:(Int64.of_int seed) () in
      for _ = 1 to 3 do
        Netlist.set_wire_cap_ff nl (Gap_util.Rng.int rng (Netlist.num_nets nl)) 120.
      done;
      let max_moves = if seed mod 3 = 0 then Some (seed mod 7) else None in
      let reference = Netlist.copy nl in
      let want, reverted = tilos_two_analyses ?max_moves reference in
      let got, calls, updates = sta_calls (fun () -> Gap_synth.Sizing.tilos ?max_moves nl) in
      got = want
      && cells_of nl = cells_of reference
      && calls = 1
      && updates = got.moves + if reverted then 1 else 0)

(* --- incremental timing --- *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* A session against a fresh full analysis of the netlist as it stands: the
   period, the critical path's instances and every arrival, bit for bit. *)
let session_matches_full ~config nl s =
  let full = Sta.analyze ~config nl in
  let arrivals_match = ref true in
  Array.iteri
    (fun net a -> if not (same_bits (Sta.Session.arrival s net) a) then arrivals_match := false)
    full.Sta.arrival;
  !arrivals_match
  && same_bits (Sta.Session.min_period_ps s) full.Sta.min_period_ps
  && Sta.Session.critical_instances s
     = List.filter_map (fun (st : Sta.step) -> st.Sta.inst) full.Sta.critical.Sta.steps

(* Random mapped logic; even seeds are pipelined, so flops drive resized
   cells, and seeds 2-3 mod 4 carry random wire parasitics. Each step
   resizes a cell (half the time one on the critical path) to a random rung
   of its drive ladder, and a third of the steps are undone. *)
let session_matches_full_analysis =
  QCheck.Test.make ~name:"sta session: resize/undo = full analysis, bit for bit" ~count:40
    QCheck.(int_bound 10_000)
    (fun seed ->
      let lib = Lazy.force rich in
      let rng = Gap_util.Rng.create ~seed:(Int64.of_int seed) () in
      let g =
        Gap_datapath.Random_logic.generate ~seed:(Int64.of_int seed) ~inputs:8 ~outputs:4
          ~gates:60 ()
      in
      let nl = Gap_synth.Mapper.map_aig ~lib g in
      if seed mod 2 = 0 then ignore (Gap_retime.Pipeline.pipeline ~stages:3 nl);
      if seed mod 4 >= 2 then
        for _ = 1 to 12 do
          let net = Gap_util.Rng.int rng (Netlist.num_nets nl) in
          Netlist.set_wire_cap_ff nl net (Gap_util.Rng.float rng 120.);
          Netlist.set_wire_delay_ps nl net (Gap_util.Rng.float rng 40.)
        done;
      let config = if seed mod 3 = 0 then Sta.config_with_skew 25. else Sta.default_config in
      let comb = Array.of_list (Netlist.combinational_instances nl) in
      let s = Sta.Session.start ~config nl in
      let ok = ref (session_matches_full ~config nl s) in
      for _ = 1 to 30 do
        if !ok then begin
          let crit = Array.of_list (Sta.Session.critical_instances s) in
          let i =
            if crit <> [||] && Gap_util.Rng.bool rng then Gap_util.Rng.choose rng crit
            else Gap_util.Rng.choose rng comb
          in
          let ladder = Array.of_list (Library.drives_of lib (Netlist.cell_of nl i).base) in
          Sta.Session.resize s i (Gap_util.Rng.choose rng ladder);
          ok := session_matches_full ~config nl s;
          if !ok && Gap_util.Rng.int rng 3 = 0 then begin
            Sta.Session.undo s;
            ok := session_matches_full ~config nl s
          end
        end
      done;
      !ok)

(* [downsize_noncritical] as it stood with a full analysis per trial. *)
let downsize_full_reference ~slack_margin_ps nl =
  let lib = Netlist.lib nl in
  let sta = ref (Sta.analyze nl) in
  let budget = !sta.Sta.min_period_ps +. slack_margin_ps in
  let accepted = ref 0 in
  List.iter
    (fun i ->
      if not (List.exists (fun (st : Sta.step) -> st.Sta.inst = Some i) !sta.Sta.critical.Sta.steps)
      then begin
        let c = Netlist.cell_of nl i in
        match Library.next_drive_down lib c with
        | Some down ->
            Netlist.replace_cell nl i down;
            let after = Sta.analyze nl in
            if after.Sta.min_period_ps <= budget then begin
              incr accepted;
              sta := after
            end
            else Netlist.replace_cell nl i c
        | None -> ()
      end)
    (Netlist.combinational_instances nl);
  !accepted

let downsize_matches_full_reference =
  QCheck.Test.make ~name:"downsize_noncritical = full-analysis reference" ~count:30
    QCheck.(int_bound 10_000)
    (fun seed ->
      let g =
        Gap_datapath.Random_logic.generate ~seed:(Int64.of_int seed) ~inputs:8 ~outputs:4
          ~gates:60 ()
      in
      let nl = Gap_synth.Mapper.map_aig ~lib:(Lazy.force rich) g in
      if seed mod 2 = 0 then ignore (Gap_retime.Pipeline.pipeline ~stages:2 nl);
      Gap_synth.Sizing.set_all_drives nl ~drive:(if seed mod 3 = 0 then 2. else 4.);
      let rng = Gap_util.Rng.create ~seed:(Int64.of_int seed) () in
      for _ = 1 to 3 do
        Netlist.set_wire_cap_ff nl (Gap_util.Rng.int rng (Netlist.num_nets nl)) 120.
      done;
      let slack_margin_ps = [| 0.; 1.; 5.; 20. |].(seed mod 4) in
      let reference = Netlist.copy nl in
      let want = downsize_full_reference ~slack_margin_ps reference in
      let got = Gap_synth.Sizing.downsize_noncritical ~slack_margin_ps nl in
      got = want && cells_of nl = cells_of reference)

let test_set_all_drives () =
  let g = Gap_datapath.Adders.ripple_adder 6 in
  let nl = Gap_synth.Mapper.map_aig ~lib:(Lazy.force rich) g in
  Gap_synth.Sizing.set_all_drives nl ~drive:2.;
  List.iter
    (fun i ->
      let c = Netlist.cell_of nl i in
      Alcotest.(check (float 1e-9)) ("drive of " ^ c.Gap_liberty.Cell.name) 2. c.Gap_liberty.Cell.drive)
    (Netlist.combinational_instances nl)

let test_minimize_drives () =
  let g = Gap_datapath.Adders.ripple_adder 6 in
  let nl = Gap_synth.Mapper.map_aig ~lib:(Lazy.force rich) g in
  Gap_synth.Sizing.minimize_drives nl;
  List.iter
    (fun i ->
      let c = Netlist.cell_of nl i in
      Alcotest.(check (float 1e-9)) "at smallest" 0.5 c.Gap_liberty.Cell.drive)
    (Netlist.combinational_instances nl)

let test_downsize_noncritical () =
  let g = Gap_datapath.Adders.cla_adder 8 in
  let nl = Gap_synth.Mapper.map_aig ~lib:(Lazy.force rich) g in
  Gap_synth.Sizing.set_all_drives nl ~drive:4.;
  let before_area = Netlist.area_um2 nl in
  let before_period = (Sta.analyze nl).Sta.min_period_ps in
  let accepted = Gap_synth.Sizing.downsize_noncritical ~slack_margin_ps:1. nl in
  Alcotest.(check bool) "some downsizes accepted" true (accepted > 0);
  Alcotest.(check bool) "area shrank" true (Netlist.area_um2 nl < before_area);
  Alcotest.(check bool) "period held" true
    ((Sta.analyze nl).Sta.min_period_ps <= before_period +. 1.1)

(* --- buffering --- *)

let high_fanout_netlist fanout =
  let lib = Lazy.force rich in
  let nl = Netlist.create ~lib "fanout" in
  let a = Netlist.add_input nl "a" in
  let inv = Netlist.add_cell nl (Option.get (Library.find lib ~base:"INV" ~drive:1.)) [| a |] in
  let src = Netlist.out_net nl inv in
  for k = 0 to fanout - 1 do
    let i = Netlist.add_cell nl (Option.get (Library.find lib ~base:"INV" ~drive:1.)) [| src |] in
    ignore (Netlist.set_output nl (Printf.sprintf "o%d" k) (Netlist.out_net nl i))
  done;
  nl

let test_buffering_limits_fanout () =
  let nl = high_fanout_netlist 40 in
  let inserted = Gap_synth.Buffering.buffer_fanout ~max_fanout:6 nl in
  Alcotest.(check bool) "buffers inserted" true (inserted > 0);
  for net = 0 to Netlist.num_nets nl - 1 do
    Alcotest.(check bool) "fanout bounded" true (List.length (Netlist.sinks_of nl net) <= 6)
  done;
  Alcotest.(check bool) "clean" true (Gap_netlist.Check.is_clean nl)

let test_buffering_preserves_function () =
  let nl = high_fanout_netlist 20 in
  let eval_all n =
    List.map (fun v -> Sim.eval n (Sim.initial n) [| v |]) [ true; false ]
  in
  let before = eval_all nl in
  ignore (Gap_synth.Buffering.buffer_fanout ~max_fanout:4 nl);
  Alcotest.(check bool) "function preserved" true (before = eval_all nl)

let test_buffering_inverter_pairs_in_poor_lib () =
  (* the poor library has no buffers; pairs of inverters must be used *)
  let lib = Lazy.force poor in
  let nl = Netlist.create ~lib "fanout-poor" in
  let a = Netlist.add_input nl "a" in
  let inv_cell = Option.get (Library.find lib ~base:"INV" ~drive:1.) in
  let inv = Netlist.add_cell nl inv_cell [| a |] in
  let src = Netlist.out_net nl inv in
  for k = 0 to 19 do
    let i = Netlist.add_cell nl inv_cell [| src |] in
    ignore (Netlist.set_output nl (Printf.sprintf "o%d" k) (Netlist.out_net nl i))
  done;
  let evals n = List.map (fun v -> Sim.eval n (Sim.initial n) [| v |]) [ true; false ] in
  let before = evals nl in
  let inserted = Gap_synth.Buffering.buffer_fanout ~max_fanout:6 nl in
  Alcotest.(check bool) "inserted pairs" true (inserted >= 2);
  Alcotest.(check bool) "polarity preserved" true (before = evals nl)

(* --- hold fixing --- *)

let test_hold_fix_cleans () =
  let g = Gap_datapath.Multiplier.array_multiplier ~width:5 in
  let effort = { Gap_synth.Flow.default_effort with Gap_synth.Flow.tilos_moves = 0 } in
  let nl = (Gap_synth.Flow.run ~lib:(Lazy.force rich) ~effort g).Gap_synth.Flow.netlist in
  ignore (Gap_retime.Pipeline.pipeline ~stages:3 nl);
  let skew = 150. in
  let before = Gap_sta.Hold.violation_count (Gap_sta.Hold.analyze ~skew_ps:skew nl) in
  Alcotest.(check bool) "violations exist under heavy skew" true (before > 0);
  let outputs_before =
    let rng = Gap_util.Rng.create ~seed:2L () in
    let n = Gap_logic.Aig.num_inputs g in
    List.init 15 (fun _ -> Array.init n (fun _ -> Gap_util.Rng.bool rng))
  in
  let sim_before = Sim.run nl outputs_before in
  let r = Gap_synth.Hold_fix.fix ~skew_ps:skew nl in
  Alcotest.(check bool) "clean afterwards" true r.Gap_synth.Hold_fix.clean;
  Alcotest.(check bool) "buffers inserted" true (r.Gap_synth.Hold_fix.buffers_inserted > 0);
  Alcotest.(check int) "hold now clean" 0
    (Gap_sta.Hold.violation_count (Gap_sta.Hold.analyze ~skew_ps:skew nl));
  Alcotest.(check bool) "behaviour preserved" true (Sim.run nl outputs_before = sim_before)

let test_hold_fix_noop_when_clean () =
  let g = Gap_datapath.Adders.ripple_adder 6 in
  let nl = Gap_synth.Mapper.map_aig ~lib:(Lazy.force rich) g in
  let r = Gap_synth.Hold_fix.fix ~skew_ps:0. nl in
  Alcotest.(check int) "nothing inserted" 0 r.Gap_synth.Hold_fix.buffers_inserted;
  Alcotest.(check bool) "clean" true r.Gap_synth.Hold_fix.clean

(* --- flow --- *)

let test_flow_end_to_end () =
  let g = Gap_datapath.Alu.alu 8 in
  let outcome = Gap_synth.Flow.run ~lib:(Lazy.force rich) ~name:"alu8" g in
  Alcotest.(check bool) "flow result equivalent" true
    (netlist_matches_aig g outcome.Gap_synth.Flow.netlist);
  Alcotest.(check bool) "sta present" true (outcome.Gap_synth.Flow.sta.Sta.min_period_ps > 0.);
  Alcotest.(check bool) "sizing ran" true (outcome.Gap_synth.Flow.sizing <> None)

let test_flow_low_effort_is_worse () =
  let g = Gap_datapath.Adders.ripple_adder 16 in
  let hi = Gap_synth.Flow.run ~lib:(Lazy.force rich) g in
  let lo = Gap_synth.Flow.run ~lib:(Lazy.force rich) ~effort:Gap_synth.Flow.low_effort g in
  Alcotest.(check bool) "default effort at least as fast" true
    (hi.Gap_synth.Flow.sta.Sta.min_period_ps
    <= lo.Gap_synth.Flow.sta.Sta.min_period_ps +. 1e-6)

let suite =
  [
    ("cuts: inputs trivial", `Quick, test_cuts_trivial_inputs);
    ("cuts: cut function", `Quick, test_cut_function);
    QCheck_alcotest.to_alcotest cut_tables_match_reference;
    ("cuts: table of a cut with a dependent leaf", `Quick, test_cut_with_dependent_leaf);
    ("cuts: k bound respected", `Quick, test_cuts_k_bound);
    ("balance: chain to log depth", `Quick, test_balance_chain_depth);
    QCheck_alcotest.to_alcotest balance_preserves_function;
    ("balance: adder equivalence", `Quick, test_balance_preserves_adder);
    ("mapper: equivalence (rich)", `Quick, test_mapper_equivalence_rich);
    ("mapper: equivalence (poor)", `Quick, test_mapper_equivalence_poor);
    ("mapper: area mode", `Quick, test_mapper_area_mode);
    QCheck_alcotest.to_alcotest mapper_random_equivalence;
    ("mapper: constants and wires", `Quick, test_mapper_constant_outputs);
    ("mapper: two-pass refinement", `Quick, test_mapper_two_pass);
    ("mapper: estimate positive", `Quick, test_mapper_estimate_positive);
    ("tilos: never worsens", `Quick, test_tilos_never_worsens);
    ("tilos: gains under wire load", `Quick, test_tilos_gains_under_wire_load);
    QCheck_alcotest.to_alcotest tilos_matches_two_analysis_reference;
    ("sizing: set_all_drives", `Quick, test_set_all_drives);
    ("sizing: minimize_drives", `Quick, test_minimize_drives);
    ("sizing: downsize non-critical", `Quick, test_downsize_noncritical);
    ("buffering: limits fanout", `Quick, test_buffering_limits_fanout);
    ("buffering: preserves function", `Quick, test_buffering_preserves_function);
    ("buffering: inverter pairs", `Quick, test_buffering_inverter_pairs_in_poor_lib);
    ("hold fix: cleans violations", `Quick, test_hold_fix_cleans);
    ("hold fix: no-op when clean", `Quick, test_hold_fix_noop_when_clean);
    ("flow: end to end", `Quick, test_flow_end_to_end);
    ("flow: low effort worse", `Quick, test_flow_low_effort_is_worse);
    QCheck_alcotest.to_alcotest cuts_match_list_reference;
    ("cuts: overflow re-sort = list reference", `Quick, test_cuts_overflow_matches_reference);
    ("cuts: k above five rejected", `Quick, test_cuts_k_above_5_rejected);
    QCheck_alcotest.to_alcotest session_matches_full_analysis;
    QCheck_alcotest.to_alcotest downsize_matches_full_reference;
  ]

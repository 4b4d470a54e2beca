(* Tests for Gap_logic: truth tables, NPN matching, expressions, AIGs. *)

module Tt = Gap_logic.Truthtable
module Npn = Gap_logic.Npn
module Expr = Gap_logic.Expr
module Aig = Gap_logic.Aig
module Cell = Gap_liberty.Cell
module Library = Gap_liberty.Library

let tt_gen vars =
  QCheck.Gen.map (fun bits -> Tt.create ~vars bits) QCheck.Gen.int64

let tt_arb vars = QCheck.make ~print:(Format.asprintf "%a" Tt.pp) (tt_gen vars)

(* --- truth tables --- *)

let test_tt_var () =
  let x0 = Tt.var ~vars:2 0 and x1 = Tt.var ~vars:2 1 in
  Alcotest.(check bool) "x0 at m=1" true (Tt.eval x0 1);
  Alcotest.(check bool) "x0 at m=2" false (Tt.eval x0 2);
  Alcotest.(check bool) "x1 at m=2" true (Tt.eval x1 2);
  Alcotest.(check bool) "x1 at m=1" false (Tt.eval x1 1)

let test_tt_ops () =
  let vars = 3 in
  let a = Tt.var ~vars 0 and b = Tt.var ~vars 1 in
  let and_ab = Tt.logand a b in
  for m = 0 to 7 do
    Alcotest.(check bool) "and semantics" (m land 1 <> 0 && m land 2 <> 0) (Tt.eval and_ab m)
  done;
  Alcotest.(check bool) "xor differs from or" false
    (Tt.equal (Tt.logxor a b) (Tt.logor a b))

let de_morgan =
  QCheck.Test.make ~name:"tt De Morgan" ~count:300
    (QCheck.pair (tt_arb 4) (tt_arb 4))
    (fun (a, b) ->
      Tt.equal (Tt.lognot (Tt.logand a b)) (Tt.logor (Tt.lognot a) (Tt.lognot b)))

let shannon_expansion =
  QCheck.Test.make ~name:"tt Shannon expansion" ~count:300 (tt_arb 4) (fun f ->
      let x = Tt.var ~vars:4 2 in
      let f1 = Tt.cofactor f 2 true and f0 = Tt.cofactor f 2 false in
      Tt.equal f (Tt.logor (Tt.logand x f1) (Tt.logand (Tt.lognot x) f0)))

let test_tt_depends () =
  let vars = 3 in
  let f = Tt.logand (Tt.var ~vars 0) (Tt.var ~vars 2) in
  Alcotest.(check bool) "depends on 0" true (Tt.depends_on f 0);
  Alcotest.(check bool) "not on 1" false (Tt.depends_on f 1);
  Alcotest.(check int) "support" 2 (Tt.support_size f)

let permute_roundtrip =
  QCheck.Test.make ~name:"tt permute by inverse permutation" ~count:200 (tt_arb 4)
    (fun f ->
      let p = [| 2; 0; 3; 1 |] in
      let inv = Array.make 4 0 in
      Array.iteri (fun i pi -> inv.(pi) <- i) p;
      Tt.equal f (Tt.permute (Tt.permute f p) inv))

let negate_involution =
  QCheck.Test.make ~name:"tt negate_input involution" ~count:200 (tt_arb 4) (fun f ->
      Tt.equal f (Tt.negate_input (Tt.negate_input f 1) 1))

(* Minterm-by-minterm references for the mask-and-shift operations. *)
let ref_permute f p =
  let n = Tt.vars f in
  Tt.of_fun ~vars:n (fun m ->
      let old_m = ref 0 in
      for i = 0 to n - 1 do
        if m land (1 lsl p.(i)) <> 0 then old_m := !old_m lor (1 lsl i)
      done;
      Tt.eval f !old_m)

let shuffle_gen n =
  QCheck.Gen.(
    map
      (fun keys ->
        let idx = Array.init n (fun i -> i) in
        Array.stable_sort (fun a b -> Int.compare keys.(a) keys.(b)) idx;
        idx)
      (array_repeat n (int_bound 1000)))

let tt_bitops_reference =
  let gen =
    QCheck.Gen.(
      int_range 1 6 >>= fun vars ->
      int_range vars 6 >>= fun wide ->
      triple int64 (shuffle_gen vars) (int_bound (vars - 1))
      >|= fun (bits, perm, i) -> (Tt.create ~vars bits, perm, i, wide))
  in
  QCheck.Test.make ~name:"tt bit ops match minterm reference" ~count:300 (QCheck.make gen)
    (fun (f, perm, i, wide) ->
      let n = Tt.vars f in
      let negated = Tt.of_fun ~vars:n (fun m -> Tt.eval f (m lxor (1 lsl i))) in
      let expanded = Tt.of_fun ~vars:wide (fun m -> Tt.eval f (m land ((1 lsl n) - 1))) in
      Tt.equal (Tt.permute f perm) (ref_permute f perm)
      && Tt.equal (Tt.negate_input f i) negated
      && Tt.equal (Tt.expand f ~vars:wide) expanded)

let test_tt_monotone () =
  let vars = 3 in
  let and3 = Tt.logand (Tt.logand (Tt.var ~vars 0) (Tt.var ~vars 1)) (Tt.var ~vars 2) in
  let maj =
    Tt.of_fun ~vars (fun m ->
        let b i = m land (1 lsl i) <> 0 in
        (b 0 && b 1) || (b 0 && b 2) || (b 1 && b 2))
  in
  let xor = Tt.logxor (Tt.var ~vars 0) (Tt.var ~vars 1) in
  Alcotest.(check bool) "and3 monotone" true (Tt.is_monotone and3);
  Alcotest.(check bool) "maj monotone" true (Tt.is_monotone maj);
  Alcotest.(check bool) "xor not monotone" false (Tt.is_monotone xor);
  Alcotest.(check bool) "nand not positive unate" false
    (Tt.is_positive_unate_in (Tt.lognot and3) 0)

let test_tt_expand () =
  let f = Tt.logand (Tt.var ~vars:2 0) (Tt.var ~vars:2 1) in
  let g = Tt.expand f ~vars:4 in
  Alcotest.(check int) "vars" 4 (Tt.vars g);
  Alcotest.(check bool) "same function" true (Tt.eval g 0b1011 && not (Tt.eval g 0b1001))

let test_tt_count_ones () =
  Alcotest.(check int) "and2 has one minterm" 1
    (Tt.count_ones (Tt.logand (Tt.var ~vars:2 0) (Tt.var ~vars:2 1)));
  Alcotest.(check int) "const true 3 vars" 8 (Tt.count_ones (Tt.const_true ~vars:3))

(* --- NPN --- *)

let test_npn_permutation_count () =
  Alcotest.(check int) "4!" 24 (List.length (Npn.permutations 4));
  Alcotest.(check int) "3!" 6 (List.length (Npn.permutations 3))

let rich = lazy (Gap_liberty.Libgen.make Gap_tech.Tech.asic_025um Gap_liberty.Libgen.rich)
let match_names lib f =
  Array.to_list (Array.map (fun ((c : Cell.t), _) -> c.name) (Library.matches lib f))

(* NPN-equivalent functions are realized by the same cells: the match table
   of the rich library is invariant under every transform. *)
let npn_matches_invariant =
  QCheck.Test.make ~name:"npn matches transform-invariant" ~count:150
    (QCheck.pair (tt_arb 3) (QCheck.make QCheck.Gen.(pair (int_bound 5) (pair (int_bound 7) bool))))
    (fun (f, (perm_idx, (neg_mask, out_neg))) ->
      let lib = Lazy.force rich in
      let perm = List.nth (Npn.permutations 3) perm_idx in
      let t = { Npn.perm; input_neg = neg_mask; output_neg = out_neg } in
      let g = Npn.apply f t in
      match_names lib f = match_names lib g)

(* Every table entry wires its cell to the target; a cell left out of the
   entry has no NPN wiring to the target at all. *)
let npn_matches_wire =
  QCheck.Test.make ~name:"npn matches wire correctly" ~count:150
    (QCheck.pair (QCheck.int_range 1 4) (QCheck.make QCheck.Gen.int64))
    (fun (vars, bits) ->
      let lib = Lazy.force rich in
      let target = Tt.create ~vars bits in
      let found = Library.matches lib target in
      Array.for_all (fun ((c : Cell.t), t) -> Tt.equal (Npn.apply c.func t) target) found
      && Array.for_all
           (fun (c : Cell.t) ->
             c.kind <> Cell.Comb
             || Tt.vars c.func <> vars
             || Array.exists (fun ((c' : Cell.t), _) -> c' == c) found
             || Option.is_none (Npn.best_match ~target ~candidate:c.func))
           (Library.cells lib))

let test_npn_best_match_cost () =
  (* AND2 as target, NAND2 as candidate: best wiring needs exactly one
     negation (the output) *)
  let vars = 2 in
  let and2 = Tt.logand (Tt.var ~vars 0) (Tt.var ~vars 1) in
  let nand2 = Tt.lognot and2 in
  match Npn.best_match ~target:and2 ~candidate:nand2 with
  | None -> Alcotest.fail "NAND2 matches AND2 up to NPN"
  | Some t -> Alcotest.(check int) "one negation" 1 (Npn.negation_cost t)

let test_npn_identity () =
  let f = Tt.var ~vars:3 1 in
  let t = Npn.identity 3 in
  Alcotest.(check bool) "identity applies" true (Tt.equal f (Npn.apply f t));
  Alcotest.(check int) "zero cost" 0 (Npn.negation_cost t)

(* --- expr --- *)

let test_expr_eval () =
  let open Expr in
  let e = mux ~sel:(var 2) (var 0) (var 1) in
  let env m i = m land (1 lsl i) <> 0 in
  for m = 0 to 7 do
    let expect = if m land 4 <> 0 then m land 2 <> 0 else m land 1 <> 0 in
    Alcotest.(check bool) "mux semantics" expect (eval e (env m))
  done

let test_expr_majority () =
  let open Expr in
  let e = majority (var 0) (var 1) (var 2) in
  let tt = to_truthtable ~vars:3 e in
  Alcotest.(check int) "maj minterms" 4 (Tt.count_ones tt);
  Alcotest.(check bool) "monotone" true (Tt.is_monotone tt)

let test_expr_max_var () =
  let open Expr in
  Alcotest.(check int) "const" (-1) (max_var tru);
  Alcotest.(check int) "nested" 5 (max_var (var 2 &&& not_ (var 5)))

(* --- aig --- *)

let test_aig_simplifications () =
  let g = Aig.create () in
  let a = Aig.add_input g "a" in
  Alcotest.(check int) "x & 0" Aig.lit_false (Aig.and_ g a Aig.lit_false);
  Alcotest.(check int) "x & 1" a (Aig.and_ g a Aig.lit_true);
  Alcotest.(check int) "x & x" a (Aig.and_ g a a);
  Alcotest.(check int) "x & !x" Aig.lit_false (Aig.and_ g a (Aig.negate a));
  Alcotest.(check int) "no nodes created" 0 (Aig.num_ands g)

let test_aig_strash () =
  let g = Aig.create () in
  let a = Aig.add_input g "a" and b = Aig.add_input g "b" in
  let n1 = Aig.and_ g a b in
  let n2 = Aig.and_ g b a in
  Alcotest.(check int) "structural hashing" n1 n2;
  Alcotest.(check int) "one node" 1 (Aig.num_ands g)

let test_aig_eval_gates () =
  let g = Aig.create () in
  let a = Aig.add_input g "a" and b = Aig.add_input g "b" in
  Aig.add_output g "xor" (Aig.xor_ g a b);
  Aig.add_output g "or" (Aig.or_ g a b);
  Aig.add_output g "nand" (Aig.negate (Aig.and_ g a b));
  let cases = [ (false, false); (false, true); (true, false); (true, true) ] in
  List.iter
    (fun (x, y) ->
      let out = Aig.eval g [| x; y |] in
      Alcotest.(check bool) "xor" (x <> y) out.(0);
      Alcotest.(check bool) "or" (x || y) out.(1);
      Alcotest.(check bool) "nand" (not (x && y)) out.(2))
    cases

let test_aig_mux () =
  let g = Aig.create () in
  let a = Aig.add_input g "a" and b = Aig.add_input g "b" and s = Aig.add_input g "s" in
  Aig.add_output g "y" (Aig.mux_ g ~sel:s a b);
  for m = 0 to 7 do
    let x = m land 1 <> 0 and y = m land 2 <> 0 and sel = m land 4 <> 0 in
    let out = Aig.eval g [| x; y; sel |] in
    Alcotest.(check bool) "mux" (if sel then y else x) out.(0)
  done

let test_aig_eval64_matches_eval () =
  let g = Gap_datapath.Adders.ripple_adder 6 in
  let rng = Gap_util.Rng.create () in
  let n = Aig.num_inputs g in
  for _ = 1 to 50 do
    let ins = Array.init n (fun _ -> Gap_util.Rng.bool rng) in
    let packed = Array.map (fun b -> if b then -1L else 0L) ins in
    let o1 = Aig.eval g ins in
    let o64 = Aig.eval64 g packed in
    Array.iteri
      (fun i b ->
        Alcotest.(check bool) "bit-parallel agrees" b (Int64.logand o64.(i) 1L = 1L))
      o1
  done

let test_aig_depth_and_levels () =
  let g = Aig.create () in
  let a = Aig.add_input g "a" and b = Aig.add_input g "b" and c = Aig.add_input g "c" in
  let ab = Aig.and_ g a b in
  let abc = Aig.and_ g ab c in
  Aig.add_output g "y" abc;
  Alcotest.(check int) "depth 2" 2 (Aig.depth g);
  let lev = Aig.levels g in
  Alcotest.(check int) "input level" 0 lev.(Aig.id_of_lit a);
  Alcotest.(check int) "top level" 2 lev.(Aig.id_of_lit abc)

let test_aig_cone_of () =
  let g = Aig.create () in
  let a = Aig.add_input g "a" and b = Aig.add_input g "b" and c = Aig.add_input g "c" in
  let ab = Aig.and_ g a b in
  let bc = Aig.and_ g b c in
  let cone = Aig.cone_of g [ ab ] in
  Alcotest.(check int) "cone size" 1 (Array.length cone);
  Alcotest.(check int) "cone content" (Aig.id_of_lit ab) cone.(0);
  let cone2 = Aig.cone_of g [ ab; bc ] in
  Alcotest.(check int) "joint cone" 2 (Array.length cone2)

let test_aig_fanout_counts () =
  let g = Aig.create () in
  let a = Aig.add_input g "a" and b = Aig.add_input g "b" in
  let ab = Aig.and_ g a b in
  let x = Aig.and_ g ab a in
  Aig.add_output g "y" x;
  Aig.add_output g "z" ab;
  let f = Aig.fanout_counts g in
  Alcotest.(check int) "a used twice" 2 f.(Aig.id_of_lit a);
  Alcotest.(check int) "ab used twice (and + output)" 2 f.(Aig.id_of_lit ab)

let test_aig_equivalence_check () =
  (* xor built two ways *)
  let build f =
    let g = Aig.create () in
    let a = Aig.add_input g "a" and b = Aig.add_input g "b" in
    Aig.add_output g "y" (f g a b);
    g
  in
  let g1 = build (fun g a b -> Aig.xor_ g a b) in
  let g2 =
    build (fun g a b ->
        Aig.or_ g (Aig.and_ g a (Aig.negate b)) (Aig.and_ g (Aig.negate a) b))
  in
  let g3 = build (fun g a b -> Aig.or_ g a b) in
  let rng = Gap_util.Rng.create () in
  Alcotest.(check bool) "equivalent xors" true (Aig.equivalent_random g1 g2 rng);
  Alcotest.(check bool) "xor is not or" false (Aig.equivalent_random g1 g3 rng)

let test_aig_of_expr () =
  let g = Aig.create () in
  let a = Aig.add_input g "a" and b = Aig.add_input g "b" and c = Aig.add_input g "c" in
  let e = Expr.(majority (var 0) (var 1) (var 2)) in
  Aig.add_output g "m" (Aig.of_expr g e [| a; b; c |]);
  for m = 0 to 7 do
    let bit i = m land (1 lsl i) <> 0 in
    let out = Aig.eval g [| bit 0; bit 1; bit 2 |] in
    let expect = Expr.eval e bit in
    Alcotest.(check bool) "majority via aig" expect out.(0)
  done

let suite =
  [
    ("tt var", `Quick, test_tt_var);
    ("tt ops", `Quick, test_tt_ops);
    QCheck_alcotest.to_alcotest de_morgan;
    QCheck_alcotest.to_alcotest shannon_expansion;
    ("tt depends/support", `Quick, test_tt_depends);
    QCheck_alcotest.to_alcotest permute_roundtrip;
    QCheck_alcotest.to_alcotest negate_involution;
    QCheck_alcotest.to_alcotest tt_bitops_reference;
    ("tt monotone/unate", `Quick, test_tt_monotone);
    ("tt expand", `Quick, test_tt_expand);
    ("tt count_ones", `Quick, test_tt_count_ones);
    ("npn permutation count", `Quick, test_npn_permutation_count);
    QCheck_alcotest.to_alcotest npn_matches_invariant;
    QCheck_alcotest.to_alcotest npn_matches_wire;
    ("npn best match cost", `Quick, test_npn_best_match_cost);
    ("npn identity", `Quick, test_npn_identity);
    ("expr mux eval", `Quick, test_expr_eval);
    ("expr majority", `Quick, test_expr_majority);
    ("expr max_var", `Quick, test_expr_max_var);
    ("aig simplifications", `Quick, test_aig_simplifications);
    ("aig structural hashing", `Quick, test_aig_strash);
    ("aig gate eval", `Quick, test_aig_eval_gates);
    ("aig mux", `Quick, test_aig_mux);
    ("aig eval64 vs eval", `Quick, test_aig_eval64_matches_eval);
    ("aig depth/levels", `Quick, test_aig_depth_and_levels);
    ("aig cone_of", `Quick, test_aig_cone_of);
    ("aig fanout counts", `Quick, test_aig_fanout_counts);
    ("aig equivalence check", `Quick, test_aig_equivalence_check);
    ("aig of_expr", `Quick, test_aig_of_expr);
  ]

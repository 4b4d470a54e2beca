(* Benchmark harness.

   Part 1 regenerates every table the paper reproduction produces (E1-E10)
   and prints the pass/fail summary — this is the artifact the EXPERIMENTS.md
   numbers come from.

   Part 2 runs one Bechamel micro-benchmark per experiment, timing the
   computational kernel behind each table (synthesis flow, STA, placement,
   dual-rail mapping, Monte Carlo, ...), so regressions in the engines are
   visible.

   With [--kernels-json PATH] the harness instead times the hot kernels the
   performance work targets (STA, annealing placement, Monte Carlo at 1/2/4
   domains, the percentile-heavy MC flow) and writes machine-readable
   ns/run to PATH, with the pre-optimization baselines embedded for
   before/after comparison. *)

open Bechamel
open Toolkit

let regenerate_tables () =
  print_endline "=== reproduction tables (E1-E10) + extensions (X1-X3) ===";
  let results =
    Gap_experiments.Registry.run_all () @ Gap_experiments.Registry.run_extensions ()
  in
  List.iter Gap_experiments.Exp.print results;
  print_newline ();
  print_string (Gap_experiments.Registry.summary results);
  print_newline ()

(* ---- shared prebuilt inputs so the staged functions time only the kernel ---- *)

let tech = Gap_tech.Tech.asic_025um
let rich_lib = Gap_liberty.Libgen.(make tech rich)
let domino_lib = Gap_liberty.Libgen.(make tech domino)
let cla8 = Gap_datapath.Adders.cla_adder 8
let cla32 = Gap_datapath.Adders.cla_adder 32
let mult8 = Gap_datapath.Multiplier.array_multiplier ~width:8
let ks16 = Gap_datapath.Adders.kogge_stone_adder 16
let mult16_balanced =
  Gap_synth.Balance.balance (Gap_datapath.Multiplier.array_multiplier ~width:16)
let alu16_netlist = lazy (Gap_synth.Mapper.map_aig ~lib:rich_lib (Gap_datapath.Alu.alu 16))
let mult6_netlist = lazy (Gap_synth.Mapper.map_aig ~lib:rich_lib (Gap_datapath.Multiplier.array_multiplier ~width:6))
let cla16_netlist = lazy (Gap_synth.Mapper.map_aig ~lib:rich_lib (Gap_datapath.Adders.cla_adder 16))
let factors = lazy (Gap_core.Factors.all ())

let bench_tests =
  Test.make_grouped ~name:"gap"
    [
      Test.make ~name:"e1_processor_table"
        (Staged.stage (fun () ->
             List.map Gap_uarch.Processors.modeled_mhz Gap_uarch.Processors.all));
      Test.make ~name:"e2_factor_flow_kernel"
        (Staged.stage (fun () ->
             Gap_synth.Flow.run ~lib:rich_lib
               ~effort:{ Gap_synth.Flow.default_effort with Gap_synth.Flow.tilos_moves = 50 }
               cla8));
      Test.make ~name:"e3_pipelining"
        (Staged.stage (fun () ->
             let nl = Gap_synth.Mapper.map_aig ~lib:rich_lib mult8 in
             Gap_retime.Pipeline.pipeline ~stages:4 nl));
      Test.make ~name:"e4_fo4_sta"
        (Staged.stage (fun () -> Gap_sta.Sta.analyze (Lazy.force alu16_netlist)));
      Test.make ~name:"e5_clock_tree"
        (Staged.stage (fun () ->
             ( Gap_clocktree.Htree.build ~tech ~die_side_um:10000. ~sinks:20000
                 Gap_clocktree.Htree.Asic_automated,
               Gap_clocktree.Htree.build ~tech ~die_side_um:10000. ~sinks:20000
                 Gap_clocktree.Htree.Custom_tuned )));
      Test.make ~name:"e6_placement"
        (Staged.stage (fun () ->
             Gap_place.Placer.place
               ~options:{ Gap_place.Placer.default_options with Gap_place.Placer.sweeps = 5 }
               (Lazy.force mult6_netlist)));
      Test.make ~name:"e7_tilos_sizing"
        (Staged.stage (fun () ->
             let nl = Gap_synth.Mapper.map_aig ~lib:rich_lib cla8 in
             Gap_synth.Sizing.tilos ~max_moves:50 nl));
      Test.make ~name:"e8_dualrail_domino"
        (Staged.stage (fun () -> Gap_domino.Dualrail.map_aig ~domino_lib ks16));
      Test.make ~name:"e9_variation_mc"
        (Staged.stage (fun () ->
             Gap_variation.Montecarlo.simulate
               ~model:(Gap_variation.Model.make Gap_variation.Model.mature)
               ~nominal_mhz:250. ~dies:2000 ()));
      Test.make ~name:"e10_residual_analysis"
        (Staged.stage (fun () ->
             ( Gap_core.Gap_model.residual_analysis (Lazy.force factors),
               Gap_core.Gap_model.predicted_asic_custom_gap () )));
      Test.make ~name:"x1_power_estimation"
        (Staged.stage (fun () ->
             Gap_netlist.Power_est.estimate ~vectors:100 (Lazy.force mult6_netlist)
               ~freq_mhz:200.));
      Test.make ~name:"x2_binning_economics"
        (Staged.stage (fun () ->
             let mc =
               Gap_variation.Montecarlo.simulate
                 ~model:(Gap_variation.Model.make Gap_variation.Model.mature)
                 ~nominal_mhz:250. ~dies:5000 ()
             in
             Gap_variation.Economics.best_single_rating
               Gap_variation.Economics.default_pricing mc
               ~candidates:(Array.init 20 (fun i -> 180. +. (5. *. float_of_int i)))));
      Test.make ~name:"x3_time_borrowing"
        (Staged.stage (fun () ->
             Gap_retime.Borrowing.min_period
               ~stage_delays:[| 900.; 400.; 700.; 550. |]
               (Gap_retime.Borrowing.Two_phase_latch 0.5)));
      Test.make ~name:"x4_fsm_synthesis"
        (Staged.stage (fun () ->
             Gap_synth.Mapper.map_aig ~lib:rich_lib
               (Gap_datapath.Fsm.to_aig Gap_datapath.Fsm.bus_interface)));
      Test.make ~name:"x5_datapath_tiling"
        (Staged.stage (fun () -> Gap_place.Tiler.place (Lazy.force mult6_netlist)));
    ]

let measure_suite ~quota tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second quota) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let per_run_ns =
        match Analyze.OLS.estimates ols_result with
        | Some (est :: _) -> est
        | Some [] | None -> nan
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with Some r -> r | None -> nan
      in
      (* drop the "group/" prefix bechamel adds to grouped test names *)
      let short =
        match String.index_opt name '/' with
        | Some k -> String.sub name (k + 1) (String.length name - k - 1)
        | None -> name
      in
      rows := (short, per_run_ns, r2) :: !rows)
    results;
  List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) !rows

let print_rows rows =
  Gap_util.Table.print
    ~header:[ "kernel"; "time/run"; "r^2" ]
    (List.map
       (fun (name, ns, r2) ->
         [ name; Gap_obs.Obs.pp_ns ns; Printf.sprintf "%.3f" r2 ])
       rows)

(* record measured timings into an observability sink; the JSON artifact is
   then emitted from the sink's gauges rather than from ad-hoc printf *)
let record_rows sink rows =
  Gap_obs.Obs.with_sink sink (fun () ->
      List.iter
        (fun (name, ns, r2) ->
          if not (Float.is_nan ns) then
            Gap_obs.Obs.gauge ("kernel." ^ name ^ ".ns_per_run") ns;
          if not (Float.is_nan r2) then
            Gap_obs.Obs.gauge ("kernel." ^ name ^ ".r_square") r2)
        rows)

let run_benchmarks ~quota () =
  print_endline "=== bechamel micro-benchmarks (one kernel per table) ===";
  (* force the lazies so setup cost stays out of the measurements *)
  ignore (Lazy.force alu16_netlist);
  ignore (Lazy.force mult6_netlist);
  ignore (Lazy.force factors);
  print_rows (measure_suite ~quota bench_tests)

(* ---- hot-kernel suite (the targets of the incremental-HPWL / CSR /
   sharded-MC performance work) ------------------------------------------- *)

(* ns/run at the pre-optimization seed (commit 56f85bc), wall-clock
   best-of-3 on this repository's 1-CPU reference container. The
   mc_60000_d2/_d4 rows have no seed counterpart (the seed simulator was
   single-threaded); their baselines were measured at the PR 5 head
   (commit f2fd16c, pre Bigarray/chunk rebuild), where extra domains made
   the run *slower* — 40.8 ms at d2 and 89.0 ms at d4 against 11.9 ms at
   d1 — because per-sample allocation forced constant cross-domain minor-GC
   synchronization. The synth_map_cla32_rich baseline is the per-cut NPN
   search mapper (commit ba9df30), measured by this harness on a 2-CPU
   container, where the match-table mapper runs the kernel in ~5.3 ms. The
   ssta_alu16_50 and power_est_cla16 baselines are the median of three runs
   of this harness at commit af1221f on the same 2-CPU container, before
   netlists kept their topological order and before power estimation
   simulated each vector once. The cuts_mult16 baseline is the median of
   three runs of this harness at commit 64217ef on the same 2-CPU
   container, with the list-based enumerator. The tilos_cla16 baseline is
   the median of three runs at commit 53110ba on the same container, where
   every TILOS move re-timed the whole netlist. *)
let seed_baseline_ns =
  [
    ("e4_sta", 492327.);
    ("e6_place_s5", 1742751.);
    ("e6_place_s50", 16007404.);
    ("e9_mc_2000", 351704.);
    ("mc_60000_d1", 10856005.);
    ("mc_60000_d2", 40842000.);
    ("mc_60000_d4", 89012000.);
    ("mc_60000_pctl", 113284614.);
    ("synth_map_cla32_rich", 881890000.);
    ("ssta_alu16_50", 27703510.);
    ("power_est_cla16", 101144151.);
    ("cuts_mult16", 44223095.);
    ("tilos_cla16", 711207.);
  ]

let mc_model = lazy (Gap_variation.Model.make Gap_variation.Model.mature)

(* DSE point-evaluation kernels: the analytic path (no binning) and the
   MC-backed variation path, plus the FNV-1a cache-key hash *)
let dse_analytic_pt =
  { Gap_dse.Space.custom_corner with Gap_dse.Space.binning = false }

let dse_mc_pt = { Gap_dse.Space.custom_corner with Gap_dse.Space.mc_dies = 2000 }

let kernel_tests =
  Test.make_grouped ~name:"kernels"
    [
      Test.make ~name:"e4_sta"
        (Staged.stage (fun () -> Gap_sta.Sta.analyze (Lazy.force alu16_netlist)));
      Test.make ~name:"e6_place_s5"
        (Staged.stage (fun () ->
             Gap_place.Placer.place
               ~options:{ Gap_place.Placer.default_options with Gap_place.Placer.sweeps = 5 }
               (Lazy.force mult6_netlist)));
      Test.make ~name:"e6_place_s50"
        (Staged.stage (fun () ->
             Gap_place.Placer.place
               ~options:{ Gap_place.Placer.default_options with Gap_place.Placer.sweeps = 50 }
               (Lazy.force mult6_netlist)));
      Test.make ~name:"e9_mc_2000"
        (Staged.stage (fun () ->
             Gap_variation.Montecarlo.simulate ~model:(Lazy.force mc_model)
               ~nominal_mhz:250. ~dies:2000 ()));
      Test.make ~name:"mc_60000_d1"
        (Staged.stage (fun () ->
             Gap_variation.Montecarlo.simulate ~domains:1 ~model:(Lazy.force mc_model)
               ~nominal_mhz:250. ~dies:60000 ()));
      Test.make ~name:"mc_60000_d2"
        (Staged.stage (fun () ->
             Gap_variation.Montecarlo.simulate ~domains:2 ~model:(Lazy.force mc_model)
               ~nominal_mhz:250. ~dies:60000 ()));
      Test.make ~name:"mc_60000_d4"
        (Staged.stage (fun () ->
             Gap_variation.Montecarlo.simulate ~domains:4 ~model:(Lazy.force mc_model)
               ~nominal_mhz:250. ~dies:60000 ()));
      Test.make ~name:"mc_60000_pctl"
        (Staged.stage (fun () ->
             let r =
               Gap_variation.Montecarlo.simulate ~model:(Lazy.force mc_model)
                 ~nominal_mhz:250. ~dies:60000 ()
             in
             ( Gap_variation.Montecarlo.percentile r 1.,
               Gap_variation.Montecarlo.percentile r 50.,
               Gap_variation.Montecarlo.percentile r 99.,
               Gap_variation.Montecarlo.spread r )));
      Test.make ~name:"dse_eval_analytic"
        (Staged.stage (fun () -> Gap_dse.Eval.point dse_analytic_pt));
      Test.make ~name:"dse_eval_mc_2000"
        (Staged.stage (fun () -> Gap_dse.Eval.point dse_mc_pt));
      (* the mapper dominates `repro all`: cut enumeration with per-cut
         truth tables, match-table lookups and the covering DP *)
      Test.make ~name:"synth_map_cla32_rich"
        (Staged.stage (fun () -> Gap_synth.Mapper.map_aig ~lib:rich_lib cla32));
      (* cut enumeration alone, on the mapper's largest input in E3 *)
      Test.make ~name:"cuts_mult16"
        (Staged.stage (fun () -> Gap_synth.Cuts.enumerate mult16_balanced));
      Test.make ~name:"dse_key_fnv"
        (Staged.stage (fun () -> Gap_dse.Key.of_point Gap_dse.Space.custom_corner));
      (* loops that evaluate one netlist many times: SSTA re-times alu16 once
         per sample (and restores its wire delays, so runs repeat), power
         estimation simulates cla16 once per vector *)
      Test.make ~name:"ssta_alu16_50"
        (Staged.stage (fun () ->
             Gap_variation.Ssta.simulate ~samples:50 ~sigma_cell:0.05
               (Lazy.force alu16_netlist)));
      Test.make ~name:"power_est_cla16"
        (Staged.stage (fun () ->
             Gap_netlist.Power_est.estimate (Lazy.force cla16_netlist) ~freq_mhz:250.));
      (* TILOS sizing of a fresh copy of a mapped cla16: one full analysis,
         then one incremental re-timing per move *)
      Test.make ~name:"tilos_cla16"
        (Staged.stage (fun () ->
             Gap_synth.Sizing.tilos (Gap_netlist.Netlist.copy (Lazy.force cla16_netlist))));
    ]

(* Parallel-scaling gate over mc_60000: d4/d1 wall-clock ratio. The
   threshold adapts to the host because the ratio physically cannot drop
   below ~1.0 without spare cores: with >= 4 cores we demand a >= 2x
   speedup (ratio <= 0.5); with 2-3 cores, "parallel at least breaks even"
   (<= 0.9); on a single core, time-slicing 4 domains has an irreducible
   cost — each domain spawn/teardown forces a stop-the-world minor
   collection the lone core must serialize — so the bound there is "no
   worse than scheduling overhead" (<= 2.0; the pre-rebuild tree, whose
   per-sample boxing forced thousands of cross-domain GC barriers, sat
   at 7.5). *)
let scaling_threshold ~cores =
  if cores >= 4 then 0.5 else if cores >= 2 then 0.9 else 2.0

let scaling_doc rows =
  let module Json = Gap_obs.Json in
  let find name =
    List.find_map (fun (n, ns, _) -> if n = name then Some ns else None) rows
  in
  match (find "mc_60000_d1", find "mc_60000_d4") with
  | Some d1, Some d4 when d1 > 0. && not (Float.is_nan d4) ->
      let ratio = d4 /. d1 in
      let cores = Domain.recommended_domain_count () in
      let threshold = scaling_threshold ~cores in
      let pass = ratio <= threshold in
      let doc =
        Json.Obj
          [
            ("kernel", Json.Str "mc_60000");
            ("d1_ns", Json.Float d1);
            ( "d2_ns",
              match find "mc_60000_d2" with
              | Some ns -> Json.Float ns
              | None -> Json.Null );
            ("d4_ns", Json.Float d4);
            ("d4_over_d1", Json.Float ratio);
            ("host_cores", Json.Int cores);
            ("threshold", Json.Float threshold);
            ("pass", Json.Bool pass);
          ]
      in
      Some (doc, ratio, cores, threshold, pass)
  | _ -> None

let write_kernels_json ?history ~label path =
  let module Json = Gap_obs.Json in
  print_endline "=== hot-kernel benchmarks ===";
  ignore (Lazy.force alu16_netlist);
  ignore (Lazy.force mult6_netlist);
  ignore (Lazy.force cla16_netlist);
  Gap_dse.Eval.warmup ();
  (* fixed 1s quota: several kernels run >10 ms each, and a short quota
     gives the OLS fit too few samples to be trustworthy.  The sink is NOT
     installed while measuring: recording spans inside the timed kernels
     would bias the ns/run against the pre-instrumentation baselines. *)
  let rows = measure_suite ~quota:1.0 kernel_tests in
  print_rows rows;
  let sink = Gap_obs.Obs.recorder () in
  record_rows sink rows;
  let kernels =
    List.map
      (fun (name, _, _) ->
        let g suffix = Gap_obs.Obs.gauge_value sink ("kernel." ^ name ^ suffix) in
        let ns = g ".ns_per_run" in
        let baseline = List.assoc_opt name seed_baseline_ns in
        let opt_f = function Some v -> Json.Float v | None -> Json.Null in
        Json.Obj
          [
            ("name", Json.Str name);
            ("ns_per_run", opt_f ns);
            ("r_square", opt_f (g ".r_square"));
            ("baseline_ns_per_run", opt_f baseline);
            ("speedup",
             match (baseline, ns) with
             | Some b, Some ns when ns > 0. -> Json.Float (b /. ns)
             | _ -> Json.Null);
          ])
      rows
  in
  let scaling = scaling_doc rows in
  (* provenance: snapshots are only comparable across machines when each
     says which machine (and toolchain) produced it *)
  let meta = Gap_obs.History.meta_now () in
  let doc =
    Json.Obj
      ([
         ("meta", Gap_obs.History.meta_json meta);
         ("baseline_note",
          Json.Str
            "baseline ns/run measured at seed commit 56f85bc \
             (pre-optimization), wall-clock best-of-3 on the 1-CPU reference \
             container; mc_60000_d2/_d4 baselines measured at the PR 5 head \
             (pre Bigarray/chunk rebuild); null = kernel has no baseline");
         ("determinism_note",
          Json.Str
            "mc_60000_d{1,2,4} produce byte-identical sample buffers; the \
             domain count changes wall-clock only");
         ("scaling_note",
          Json.Str
            "d4_over_d1 is the parallel-scaling gate for mc_60000; the \
             threshold adapts to host_cores (>=4 cores: 0.5 i.e. >=2x \
             speedup; 2-3 cores: 0.9; 1 core: 2.0, extra domains may cost \
             at most time-slicing overhead)");
         ("kernels", Json.List kernels);
       ]
      @
      match scaling with
      | Some (sdoc, _, _, _, _) -> [ ("scaling", sdoc) ]
      | None -> [])
  in
  Gap_util.Atomic_io.write_string path (Json.to_string ~pretty:true doc ^ "\n");
  Printf.printf "wrote %s\n%!" path;
  Option.iter
    (fun store ->
      (* the history snapshot carries ns/run per kernel plus the scaling
         ratio, so `repro report --diff prev last` gates kernel regressions *)
      let metrics =
        List.filter_map
          (fun (name, ns, _) ->
            if Float.is_nan ns then None
            else Some ("kernel." ^ name ^ ".ns_per_run", ns))
          rows
        @
        match scaling with
        | Some (_, ratio, _, _, _) -> [ ("mc_60000.d4_over_d1", ratio) ]
        | None -> []
      in
      Gap_obs.History.append store
        (Gap_obs.History.make ~meta ~label metrics);
      Printf.printf "history: appended %d metrics to %s\n%!"
        (List.length metrics) store)
    history;
  match scaling with
  | Some (_, ratio, cores, threshold, pass) ->
      Printf.printf "mc_60000 scaling: d4/d1 = %.3f (host cores %d, threshold %.2f) %s\n%!"
        ratio cores threshold
        (if pass then "ok" else "FAIL");
      if not pass then begin
        prerr_endline
          "bench: mc_60000 parallel-scaling gate failed (d4/d1 above threshold)";
        exit 1
      end
  | None ->
      prerr_endline "bench: mc_60000_d1/_d4 rows missing, scaling gate not evaluated";
      exit 1

let usage () =
  print_endline
    "usage: bench [--tables-only | --bench-only] [--quick] [--kernels-json PATH]\n\
     \             [--history PATH [--label L]]\n\
     \  default            regenerate the E1-E10/X1-X5 tables, then run the\n\
     \                     per-experiment bechamel suite\n\
     \  --tables-only      only regenerate the tables\n\
     \  --bench-only       only run the per-experiment bechamel suite\n\
     \  --kernels-json P   run only the hot-kernel suite and write ns/run\n\
     \                     (with seed baselines and speedups) to P as JSON\n\
     \  --history P        with --kernels-json: also append a host-tagged\n\
     \                     snapshot (ns/run per kernel + scaling ratio) to the\n\
     \                     P history store, for repro report --diff\n\
     \  --label L          with --history: the snapshot's label (default\n\
     \                     bench-kernels), a selector for repro report --diff\n\
     \  --quick            shorter measurement quota per benchmark (does not\n\
     \                     shrink the hot-kernel suite, which needs the\n\
     \                     samples for a stable fit)"

let () =
  let tables_only = ref false in
  let bench_only = ref false in
  let quick = ref false in
  let kernels_json = ref None in
  let history = ref None in
  let label = ref "bench-kernels" in
  let rec parse = function
    | [] -> ()
    | "--tables-only" :: rest -> tables_only := true; parse rest
    | "--bench-only" :: rest -> bench_only := true; parse rest
    | "--quick" :: rest -> quick := true; parse rest
    | "--kernels-json" :: path :: rest -> kernels_json := Some path; parse rest
    | [ "--kernels-json" ] ->
        prerr_endline "bench: --kernels-json requires a path";
        usage ();
        exit 2
    | "--history" :: path :: rest -> history := Some path; parse rest
    | [ "--history" ] ->
        prerr_endline "bench: --history requires a path";
        usage ();
        exit 2
    | "--label" :: l :: rest -> label := l; parse rest
    | [ "--label" ] ->
        prerr_endline "bench: --label requires a value";
        usage ();
        exit 2
    | ("--help" | "-h") :: _ -> usage (); exit 0
    | arg :: _ ->
        Printf.eprintf "bench: unknown argument %s\n" arg;
        usage ();
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !tables_only && !bench_only then begin
    prerr_endline "bench: --tables-only and --bench-only are mutually exclusive";
    usage ();
    exit 2
  end;
  let quota = if !quick then 0.25 else 0.5 in
  match !kernels_json with
  | Some path -> write_kernels_json ?history:!history ~label:!label path
  | None ->
      if !history <> None then begin
        prerr_endline "bench: --history requires --kernels-json";
        usage ();
        exit 2
      end;
      if not !bench_only then regenerate_tables ();
      if not !tables_only then run_benchmarks ~quota ()

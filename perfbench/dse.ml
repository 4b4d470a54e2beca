(* The [dse_serve] workload: design-space exploration through the
   [repro serve] daemon, driven as a closed loop over two connections.

   A cycle spawns the daemon on a fresh store (set-up: spawn to first ping),
   runs the cold phase (every point distinct, so every request evaluates and
   appends to the store), the warm phase (the same points again, all cache
   hits) and the reopen phase (restart on the filled store, answer a sample
   of points from it). Every response must equal the in-process
   [Eval.to_json (Eval.point p)]; a typed error or a transport failure counts
   as a failed request and is never retried. *)

module M = Measure
module Space = Gap_dse.Space
module Eval = Gap_dse.Eval
module Cache = Gap_dse.Cache
module Client = Gap_serve.Client
module Protocol = Gap_serve.Protocol
module Json = Gap_obs.Json
module Rng = Gap_util.Rng

(* relative to the work directory, which is the cwd of bench and daemon, so
   the path stays short whatever the checkout's location *)
let sock = "./serve.sock"
let addr = Protocol.Unix_sock sock
let corner_composite = 17.8125

let draw rng n =
  Array.init n (fun i ->
      let pick a = Rng.choose rng a in
      {
        Space.depth = Rng.int_in rng 1 12;
        logic_fo4 = pick [| 36.; 38.; 40.; 42.; 44. |];
        sizing = pick [| Space.Minimal; Space.Typical; Space.Rich_tilos |];
        skew_frac = pick [| 0.; 0.05; 0.1; 0.15 |];
        domino = Rng.bool rng;
        floorplan = Rng.bool rng;
        binning = Rng.bool rng;
        (* strictly increasing in [i]: every point is a distinct cache key *)
        sigma_scale = 0.5 +. (float_of_int i *. 2.5e-4) +. Rng.float rng 2e-4;
        mc_dies = Rng.int_in rng 1000 16000;
        backend = pick [| Space.Asic; Space.Fpga |];
      })

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let dir_bytes path =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat path f)).Unix.st_size)
    0 (Sys.readdir path)

(* --- the daemon process --- *)

(* daemons not yet reaped: if the bench exits early they are killed and
   reaped, so no run leaves a process behind *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn ~repro ~store =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let log =
    Unix.openfile "serve.log" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Unix.create_process repro
      [| repro; "serve"; sock; "--domains"; "1"; "--store"; store |]
      null log log
  in
  Unix.close null;
  Unix.close log;
  live := pid :: !live;
  pid

(* poll until the daemon answers a ping; the connection is kept as one of
   the workload's two *)
let await ~pid =
  let t0 = M.now_s () in
  let rec go () =
    match Client.connect addr with
    | c when Client.ping c -> c
    | c ->
        Client.close c;
        retry ()
    | exception Unix.Unix_error _ -> retry ()
  and retry () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith "repro serve exited before answering (see serve.log)");
    if M.now_s () -. t0 > 30. then failwith "repro serve did not answer within 30 s";
    Unix.sleepf 0.001;
    go ()
  in
  go ()

let start ~repro ~store =
  let t0 = M.now_s () in
  let pid = spawn ~repro ~store in
  let c = await ~pid in
  (pid, c, M.now_s () -. t0)

let stop pid c =
  Client.shutdown c;
  Client.close c;
  ignore (Unix.waitpid [] pid);
  live := List.filter (( <> ) pid) !live

let counter j name =
  match Json.member name j with Some (Json.Int n) -> float_of_int n | _ -> 0.

let counters = [ "evals"; "cache_hits"; "coalesced"; "batches"; "max_batch"; "errors" ]

(* counter deltas over a phase; [max_batch] is a high-water mark, not a count *)
let phase_counters phase before after =
  List.map
    (fun k ->
      ( Printf.sprintf "serve.%s.%s" phase k,
        if k = "max_batch" then counter after k else counter after k -. counter before k ))
    counters

(* --- the closed loop --- *)

type tally = { mutable attempted : int; mutable failed : int }

let check tally ok what =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    Printf.eprintf "dse_serve: %s\n%!" what
  end

(* a failed [stats] request counts like any other; its counters read 0 *)
let stats tally c =
  match Client.request c Protocol.Stats with
  | Ok j ->
      check tally true "";
      j
  | Error e ->
      check tally false ("stats: " ^ Protocol.err_to_string e);
      Json.Obj []

(* connection [i] sends requests i, i + n, ...: each waits for its answer
   before sending the next. A failed request is counted and the connection
   replaced for the requests after it. *)
let run_phase tally conns points expected reqs =
  let n = Array.length conns in
  let lat = Array.make (Array.length reqs) 0. in
  let fails = Array.make n [] in
  let worker i =
    let j = ref i in
    while !j < Array.length reqs do
      let p = reqs.(!j) in
      let t0 = M.now_s () in
      let outcome =
        match Client.eval conns.(i) points.(p) with
        | Ok body ->
            if Json.to_string body = expected.(p) then None
            else Some (Printf.sprintf "point %d: response differs from Eval.point" p)
        | Error e -> Some (Printf.sprintf "point %d: %s" p (Protocol.err_to_string e))
        | exception e -> Some (Printf.sprintf "point %d: %s" p (Printexc.to_string e))
      in
      lat.(!j) <- M.now_s () -. t0;
      (match outcome with
      | None -> ()
      | Some msg ->
          fails.(i) <- msg :: fails.(i);
          (try
             Client.close conns.(i);
             conns.(i) <- Client.connect addr
           with _ -> ()));
      j := !j + n
    done
  in
  let t0 = M.now_s () in
  let threads = Array.mapi (fun i _ -> Thread.create worker i) conns in
  Array.iter Thread.join threads;
  let wall = M.now_s () -. t0 in
  tally.attempted <- tally.attempted + Array.length reqs;
  Array.iter
    (fun msgs ->
      tally.failed <- tally.failed + List.length msgs;
      List.iter (fun m -> Printf.eprintf "dse_serve: %s\n%!" m) (List.rev msgs))
    fails;
  (Array.to_list lat, wall)

let composite_of body =
  match Eval.of_json body with Ok m -> m.Eval.composite | Error _ -> nan

type cycle = {
  setup_s : float;
  cold : float list * float;
  warm : float list * float;
  reopen_s : float;
  rss_mb : float;
  layer : (string * float) list;
}

let cycle ~repro ~traced tally k points expected warm_reqs =
  let store = Printf.sprintf "store%d" k in
  rm_rf store;
  let pid, c0, setup_s = start ~repro ~store in
  let conns = [| c0; Client.connect addr |] in
  (match Client.eval c0 Space.custom_corner with
  | Ok body ->
      check tally
        (composite_of body = corner_composite
        && Json.to_string body
           = Json.to_string (Eval.to_json (Eval.point Space.custom_corner)))
        "custom_corner composite is not x17.8125"
  | Error e -> check tally false ("custom_corner: " ^ Protocol.err_to_string e));
  let s0 = stats tally conns.(0) in
  let cold =
    run_phase tally conns points expected (Array.init (Array.length points) Fun.id)
  in
  let s1 = stats tally conns.(0) in
  let warm = run_phase tally conns points expected warm_reqs in
  let s2 = stats tally conns.(0) in
  check tally (counter s2 "evals" = counter s1 "evals") "warm phase evaluated points";
  let ping_us =
    if not traced then []
    else
      let samples =
        List.init 200 (fun _ -> snd (M.time (fun () -> ignore (Client.ping conns.(0)))))
      in
      [ ("serve.ping_us", 1e6 *. M.median samples) ]
  in
  let rss_mb = M.peak_rss_mb pid in
  Client.close conns.(1);
  stop pid conns.(0);
  (* reopen: the filled store answers without evaluating *)
  let pid, c, reopen_s = start ~repro ~store in
  let r0 = stats tally c in
  let n = Array.length points in
  let sample = Array.init (min 64 n) (fun i -> i * 7 mod n) in
  ignore (run_phase tally [| c |] points expected sample);
  check tally
    (counter (stats tally c) "evals" = counter r0 "evals")
    "reopened store re-evaluated points";
  stop pid c;
  rm_rf store;
  {
    setup_s;
    cold;
    warm;
    reopen_s;
    rss_mb;
    layer = phase_counters "cold" s0 s1 @ phase_counters "warm" s1 s2 @ ping_us;
  }

(* in-process probes of the layers under the daemon: evaluation, flushing a
   cache into a store and reopening it *)
let layer_probes points metrics eval_untraced_s =
  let sink = Gap_obs.Obs.recorder () in
  let _, eval_traced_s =
    M.time (fun () ->
        Gap_obs.Obs.with_sink sink (fun () ->
            Array.iter (fun p -> ignore (Eval.point p)) points))
  in
  let store = "probe.store" in
  rm_rf store;
  let cache = Cache.create ~store () in
  let (), flush_s =
    M.time (fun () ->
        Array.iteri (fun i p -> Cache.add cache p metrics.(i)) points;
        Cache.flush cache)
  in
  let reopened, create_s = M.time (fun () -> Cache.create ~store ()) in
  let records, segments =
    match Cache.backend_stats reopened with
    | Some (r, s, _) -> (float_of_int r, float_of_int s)
    | None -> (0., 0.)
  in
  let bytes = float_of_int (dir_bytes store) in
  rm_rf store;
  [
    ("dse.cache.flush_s", flush_s);
    ("dse.cache.create_s", create_s);
    ("dse.store.records", records);
    ("dse.store.segments", segments);
    ("dse.store.bytes", bytes);
    ("obs.trace_overhead", eval_traced_s /. eval_untraced_s);
  ]

let run ~repro ~work ~seed ~seconds ~traced ~smoke =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Unix.chdir work;
  let n = if smoke then 200 else 4000 in
  let rng = Rng.create ~seed:(Int64.of_int seed) () in
  let points = draw rng n in
  let warm_reqs = Array.concat (List.init 10 (fun _ -> Array.init n Fun.id)) in
  Rng.shuffle rng warm_reqs;
  (* the oracle: every point evaluated in-process, timed per point *)
  Eval.warmup ();
  let timed = Array.map (fun p -> M.time (fun () -> Eval.point p)) points in
  let metrics = Array.map fst timed in
  let expected = Array.map (fun m -> Json.to_string (Eval.to_json m)) metrics in
  let eval_s = M.sum (Array.to_list (Array.map snd timed)) in
  let tally = { attempted = 0; failed = 0 } in
  check tally
    ((Eval.point Space.custom_corner).Eval.composite = corner_composite)
    "in-process custom_corner composite is not x17.8125";
  let t0 = M.now_s () in
  (* whole cycles while the next one, as long as the last, still ends
     within --seconds; at least one *)
  let rec loop k acc =
    let t = M.now_s () in
    let c = cycle ~repro ~traced tally k points expected warm_reqs in
    let now = M.now_s () in
    if traced || smoke || now +. (now -. t) -. t0 > seconds then List.rev (c :: acc)
    else loop (k + 1) (c :: acc)
  in
  let cycles = loop 0 [] in
  let digest = M.digest (Array.to_list expected) in
  if traced then
    let first = List.hd cycles in
    {
      M.attempted = tally.attempted;
      failed = tally.failed;
      digest;
      e2e = [];
      layers =
        (* the mean: a point without binning runs no Monte Carlo and costs
           a microsecond, so the median flips between the two kinds *)
        ("dse.eval.point_us", 1e6 *. eval_s /. float_of_int n)
        :: ("serve.reopen_s", first.reopen_s)
        :: first.layer
        @ layer_probes points metrics eval_s;
      notes = [];
    }
  else
    let lats = List.concat_map (fun c -> fst c.cold @ fst c.warm) cycles in
    let busy = List.map (fun c -> snd c.cold +. snd c.warm) cycles in
    let spawns = List.map (fun c -> c.setup_s) cycles in
    (* at least nine set-up samples: top up with spawn-only daemons *)
    let extra =
      List.init (max 0 (9 - List.length spawns)) (fun k ->
          let store = Printf.sprintf "spawn%d" k in
          rm_rf store;
          let pid, c, s = start ~repro ~store in
          stop pid c;
          rm_rf store;
          s)
    in
    {
      M.attempted = tally.attempted;
      failed = tally.failed;
      digest;
      e2e =
        [
          ("wall_s", M.median busy);
          ("setup_s", M.median (spawns @ extra));
          ("peak_rss_mb", List.fold_left (fun a c -> Float.max a c.rss_mb) 0. cycles);
          ("ops_per_s", float_of_int (List.length lats) /. M.sum busy);
          ("p50_ms", 1e3 *. M.percentile 50. lats);
          ("p99_ms", 1e3 *. M.percentile 99. lats);
        ];
      layers = [];
      notes =
        [
          Printf.sprintf "%d cycles of %d cold + %d warm requests; reopen %.3f s"
            (List.length cycles) n (Array.length warm_reqs)
            (M.median (List.map (fun c -> c.reopen_s) cycles));
        ];
    }

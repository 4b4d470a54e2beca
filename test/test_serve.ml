(* Tests for Gap_serve: wire protocol round-trips, the evaluation daemon
   (byte-identical responses, coalescing, poisoned requests, store reuse
   across restarts, graceful shutdown), and regressions for the concurrency
   bugs the daemon flushed out — lost History.append entries under
   concurrent writers and corrupted Gap_obs span stacks under systhreads. *)

module Protocol = Gap_serve.Protocol
module Server = Gap_serve.Server
module Client = Gap_serve.Client
module Space = Gap_dse.Space
module Eval = Gap_dse.Eval
module Cache = Gap_dse.Cache
module Obs = Gap_obs.Obs
module Json = Gap_obs.Json
module History = Gap_obs.History
module Stage_error = Gap_resilience.Stage_error

let fresh_sock =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gap_serve_test_%d_%d.sock" (Unix.getpid ()) !n)

let with_server ?store ?(domains = 1) ?(queue_bound = 64) f =
  let path = fresh_sock () in
  let addr = Protocol.Unix_sock path in
  let cfg =
    { (Server.default_config addr) with Server.domains; store; queue_bound }
  in
  let t = Server.create cfg in
  Server.start t;
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f t addr)

let with_client addr f =
  match Client.connect_retry addr with
  | Error e -> Alcotest.fail ("connect: " ^ Client.connect_error_to_string e)
  | Ok cl -> Fun.protect ~finally:(fun () -> Client.close cl) (fun () -> f cl)

(* distinct fresh points per call site so tests never share cache keys *)
let fresh_point =
  let n = ref 0 in
  fun () ->
    incr n;
    {
      Space.baseline with
      Space.sigma_scale = 3.0 +. (0.0001 *. float_of_int !n);
      mc_dies = 64;
    }

(* --- protocol --- *)

let test_protocol_roundtrip () =
  let reqs =
    [
      { Protocol.id = 1; op = Protocol.Eval Space.baseline };
      { Protocol.id = 2; op = Protocol.Sweep "smoke" };
      { Protocol.id = 3; op = Protocol.Pareto "factor-axes" };
      { Protocol.id = 4; op = Protocol.Stats };
      { Protocol.id = 5; op = Protocol.Ping };
      { Protocol.id = 6; op = Protocol.Shutdown };
    ]
  in
  List.iter
    (fun r ->
      match Protocol.parse_request (Json.to_string (Protocol.request_to_json r)) with
      | Ok r' ->
          Alcotest.(check int) "id survives" r.Protocol.id r'.Protocol.id;
          Alcotest.(check string)
            "op survives"
            (Protocol.op_name r.Protocol.op)
            (Protocol.op_name r'.Protocol.op)
      | Error e -> Alcotest.fail e)
    reqs;
  (match Protocol.parse_request "{\"id\":1}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "request without op parsed");
  (match Protocol.parse_request "not json at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage parsed");
  let resp = { Protocol.r_id = 7; body = Ok (Json.Str "pong") } in
  (match Protocol.response_of_json (Protocol.response_to_json resp) with
  | Ok r -> Alcotest.(check int) "response id" 7 r.Protocol.r_id
  | Error e -> Alcotest.fail e);
  let err = { Protocol.r_id = 8; body = Error (Protocol.Overloaded "full") } in
  match Protocol.response_of_json (Protocol.response_to_json err) with
  | Ok { Protocol.body = Error (Protocol.Overloaded m); _ } ->
      Alcotest.(check string) "overloaded detail" "full" m
  | _ -> Alcotest.fail "overloaded did not round-trip"

let test_addr_parsing () =
  (match Protocol.addr_of_string "/tmp/x.sock" with
  | Ok (Protocol.Unix_sock p) -> Alcotest.(check string) "unix path" "/tmp/x.sock" p
  | _ -> Alcotest.fail "unix addr");
  (match Protocol.addr_of_string "localhost:9000" with
  | Ok (Protocol.Tcp (h, p)) ->
      Alcotest.(check string) "host" "localhost" h;
      Alcotest.(check int) "port" 9000 p
  | _ -> Alcotest.fail "tcp addr");
  (match Protocol.addr_of_string "9000" with
  | Ok (Protocol.Tcp (h, p)) ->
      Alcotest.(check string) "loopback default" "127.0.0.1" h;
      Alcotest.(check int) "bare port" 9000 p
  | _ -> Alcotest.fail "bare port");
  match Protocol.addr_of_string "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nonsense parsed as addr"

(* --- the daemon --- *)

let test_serve_eval_byte_identical () =
  with_server (fun t addr ->
      with_client addr (fun cl ->
          Alcotest.(check bool) "ping" true (Client.ping cl);
          let p = fresh_point () in
          let expect = Json.to_string (Eval.to_json (Eval.point p)) in
          (match Client.eval cl p with
          | Ok j ->
              Alcotest.(check string)
                "server response = CLI's Eval.to_json, byte for byte" expect
                (Json.to_string j)
          | Error e -> Alcotest.fail (Protocol.err_to_string e));
          (match Client.eval cl p with
          | Ok j ->
              Alcotest.(check string) "second request identical" expect (Json.to_string j)
          | Error e -> Alcotest.fail (Protocol.err_to_string e));
          let s = Server.stats t in
          Alcotest.(check int) "one evaluation" 1 s.Server.evals;
          Alcotest.(check int) "second was a cache hit" 1 s.Server.cache_hits))

let test_concurrent_identical_coalesce () =
  let sink = Obs.recorder () in
  Obs.with_sink sink (fun () ->
      with_server (fun t addr ->
          let n = 16 in
          let p = fresh_point () in
          let results = Array.make n "" in
          let body i () =
            with_client addr (fun cl ->
                match Client.eval cl p with
                | Ok j -> results.(i) <- Json.to_string j
                | Error e -> results.(i) <- "ERR " ^ Protocol.err_to_string e)
          in
          let ths = Array.init n (fun i -> Thread.create (body i) ()) in
          Array.iter Thread.join ths;
          let expect = Json.to_string (Eval.to_json (Eval.point p)) in
          Array.iteri
            (fun i r ->
              Alcotest.(check string)
                (Printf.sprintf "client %d byte-identical" i)
                expect r)
            results;
          let s = Server.stats t in
          Alcotest.(check int)
            "N identical concurrent requests cost exactly 1 evaluation" 1
            s.Server.evals;
          Alcotest.(check int)
            "every other request coalesced or hit the cache" (n - 1)
            (s.Server.coalesced + s.Server.cache_hits);
          Alcotest.(check int)
            "the worker pool saw exactly one job" 1
            (Obs.counter_value sink "dse.pool.jobs")))

(* Connection churn next to a long-lived connection. [Client.close] once
   closed its socket through both of its channels, so the fd was closed
   twice; a socket opened by another thread in between (a churning client,
   or the daemon's accept) got the reused fd number and was killed by the
   second close: a reset connection, or a client blocked forever reading a
   socket that is no longer its own. The workload runs on its own thread
   under a deadline so that a hang fails the test instead of stalling the
   suite. *)
let test_client_churn () =
  with_server (fun _ addr ->
      with_client addr (fun long ->
          let p = fresh_point () in
          let expect = Json.to_string (Eval.to_json (Eval.point p)) in
          let failures = Atomic.make 0 and stop = Atomic.make false in
          let churn () =
            while not (Atomic.get stop) do
              match Client.connect_retry addr with
              | Error _ -> Atomic.incr failures
              | Ok cl ->
                  if not (Client.ping cl) then Atomic.incr failures;
                  Client.close cl
            done
          in
          let workload () =
            let churners = Array.init 4 (fun _ -> Thread.create churn ()) in
            let answers =
              List.init 300 (fun _ ->
                  match Client.eval long p with
                  | Ok j -> Json.to_string j
                  | Error e -> "ERR " ^ Protocol.err_to_string e)
            in
            Atomic.set stop true;
            Array.iter Thread.join churners;
            answers
          in
          let result = Atomic.make None in
          let runner = Thread.create (fun () -> Atomic.set result (Some (workload ()))) () in
          let deadline = Unix.gettimeofday () +. 60. in
          while Option.is_none (Atomic.get result) && Unix.gettimeofday () < deadline do
            Thread.delay 0.02
          done;
          match Atomic.get result with
          | None ->
              Atomic.set stop true;
              Alcotest.fail "connection churn hung: a client blocked on a socket closed under it"
          | Some answers ->
              Thread.join runner;
              List.iteri
                (fun i r ->
                  Alcotest.(check string)
                    (Printf.sprintf "long-lived answer %d byte-identical" i)
                    expect r)
                answers;
              Alcotest.(check int) "no churning client lost its connection" 0
                (Atomic.get failures)))

let test_poisoned_request_typed_error () =
  with_server (fun t addr ->
      with_client addr (fun cl ->
          (* depth 0 fails Eval.point's validation inside the supervised
             stage: the client must get a typed stage error, not a dead
             server *)
          let poison = { Space.baseline with Space.depth = 0 } in
          let line =
            Json.to_string
              (Protocol.request_to_json { Protocol.id = 9; op = Protocol.Eval poison })
          in
          (match Client.raw_roundtrip cl line with
          | Error e -> Alcotest.fail e
          | Ok resp -> (
              match Json.of_string resp with
              | Error e -> Alcotest.fail e
              | Ok j -> (
                  (match Json.member "ok" j with
                  | Some (Json.Bool false) -> ()
                  | _ -> Alcotest.fail "poisoned request did not fail");
                  match Option.bind (Json.member "error" j) (Json.member "kind") with
                  | Some (Json.Str "stage") -> ()
                  | _ -> Alcotest.fail "error kind is not \"stage\"")));
          Alcotest.(check bool) "server survives the poison" true (Client.ping cl);
          (match Client.eval cl (fresh_point ()) with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Protocol.err_to_string e));
          let s = Server.stats t in
          Alcotest.(check int) "poison counted as error" 1 s.Server.errors))

let test_malformed_line_survives () =
  with_server (fun _ addr ->
      with_client addr (fun cl ->
          (match Client.raw_roundtrip cl "{{{ not json" with
          | Ok resp -> (
              match Json.of_string resp with
              | Ok j -> (
                  match Option.bind (Json.member "error" j) (Json.member "kind") with
                  | Some (Json.Str "bad-request") -> ()
                  | _ -> Alcotest.fail "expected bad-request")
              | Error e -> Alcotest.fail e)
          | Error e -> Alcotest.fail e);
          Alcotest.(check bool) "connection still usable" true (Client.ping cl)))

let test_sweep_and_pareto_ops () =
  with_server (fun _ addr ->
      with_client addr (fun cl ->
          (match Client.request cl (Protocol.Sweep "smoke") with
          | Ok j ->
              (match Json.member "lattice" j with
              | Some (Json.Int 4) -> ()
              | _ -> Alcotest.fail "smoke lattice is not 4");
              (match Json.member "evaluated" j with
              | Some (Json.Int 4) -> ()
              | _ -> Alcotest.fail "smoke evaluated is not 4")
          | Error e -> Alcotest.fail (Protocol.err_to_string e));
          (match Client.request cl (Protocol.Pareto "smoke") with
          | Ok j -> (
              match Json.member "frontier" j with
              | Some (Json.List (_ :: _)) -> ()
              | _ -> Alcotest.fail "empty frontier")
          | Error e -> Alcotest.fail (Protocol.err_to_string e));
          match Client.request cl (Protocol.Sweep "no-such-preset") with
          | Error (Protocol.Bad_request _) -> ()
          | _ -> Alcotest.fail "unknown preset not rejected"))

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      try Unix.rmdir path with Unix.Unix_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()

let test_store_survives_restart () =
  let store = Filename.temp_file "gap_serve_store" ".store" in
  Sys.remove store;
  Fun.protect
    ~finally:(fun () -> rm_rf store)
    (fun () ->
      let p = fresh_point () in
      let first =
        with_server ~store (fun _ addr ->
            with_client addr (fun cl ->
                match Client.eval cl p with
                | Ok j -> Json.to_string j
                | Error e -> Alcotest.fail (Protocol.err_to_string e)))
      in
      (match Cache.inspect_store store with
      | Cache.Store i ->
          Alcotest.(check int) "store holds the entry" 1 i.Cache.si_entries
      | Cache.Missing m | Cache.Foreign m ->
          Alcotest.fail ("store unreadable after stop: " ^ m)
      | Cache.Corrupt e ->
          Alcotest.fail
            ("store unreadable after stop: " ^ Stage_error.to_string e));
      with_server ~store (fun t addr ->
          with_client addr (fun cl ->
              (match Client.eval cl p with
              | Ok j ->
                  Alcotest.(check string)
                    "restarted daemon replays byte-identically" first
                    (Json.to_string j)
              | Error e -> Alcotest.fail (Protocol.err_to_string e));
              let s = Server.stats t in
              Alcotest.(check int) "no re-evaluation after restart" 0 s.Server.evals;
              Alcotest.(check int) "served from the reloaded store" 1 s.Server.cache_hits)))

let test_stop_idempotent_and_refuses_new_conns () =
  let path = fresh_sock () in
  let addr = Protocol.Unix_sock path in
  let t = Server.create (Server.default_config addr) in
  Server.start t;
  with_client addr (fun cl -> Alcotest.(check bool) "up" true (Client.ping cl));
  Server.stop t;
  Server.stop t;
  Server.wait t;
  (match Client.connect_retry ~base_delay_s:0.01 ~deadline_s:0.05 addr with
  | Error _ -> ()
  | Ok cl ->
      (* a socket file may linger only if stop failed to unlink it *)
      Client.close cl;
      Alcotest.fail "daemon accepted a connection after stop");
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

let test_shutdown_request_stops_server () =
  let path = fresh_sock () in
  let addr = Protocol.Unix_sock path in
  let t = Server.create (Server.default_config addr) in
  Server.start t;
  with_client addr (fun cl -> Client.shutdown cl);
  (* the shutdown request triggers a graceful stop; wait must return *)
  Server.wait t;
  Alcotest.(check bool) "socket gone after shutdown" false (Sys.file_exists path)

(* --- regressions for the concurrency bugs the daemon flushed out --- *)

(* History.append used to read-modify-write the whole file; two concurrent
   appenders (the daemon plus the CLI) silently lost entries. One O_APPEND
   write per line must lose nothing. *)
let test_history_concurrent_append_loses_nothing () =
  let path = Filename.temp_file "gap_serve_hist" ".jsonl" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let writers = 8 and per_writer = 40 in
      let meta = History.meta_now () in
      let body w () =
        for i = 0 to per_writer - 1 do
          History.append path
            (History.make ~meta ~calibration_ns:0.
               ~label:(Printf.sprintf "w%d" w)
               [ ("i", float_of_int i) ]);
          if i mod 8 = 0 then Thread.yield ()
        done
      in
      let ths = Array.init writers (fun w -> Thread.create (body w) ()) in
      Array.iter Thread.join ths;
      match History.read path with
      | Ok (entries, note) ->
          Alcotest.(check bool) "no truncated tail" true (Option.is_none note);
          Alcotest.(check int)
            "concurrent appenders lose zero entries" (writers * per_writer)
            (List.length entries)
      | Error e -> Alcotest.fail e)

(* Span stacks used to live in Domain.DLS, which systhreads share: two
   threads opening spans concurrently corrupted each other's nesting. Each
   thread must see its own stack — same aggregate whatever the
   interleaving. *)
let test_span_stacks_per_thread () =
  let sink = Obs.recorder () in
  Obs.with_sink sink (fun () ->
      let threads = 4 and reps = 50 in
      let body () =
        for _ = 1 to reps do
          Obs.span "outer" (fun () ->
              Thread.yield ();
              Obs.span "inner" (fun () -> Thread.yield ()))
        done
      in
      let ths = Array.init threads (fun _ -> Thread.create body ()) in
      Array.iter Thread.join ths);
  let spans = Obs.spans sink in
  let calls path =
    match List.find_opt (fun s -> s.Obs.path = path) spans with
    | Some s -> s.Obs.calls
    | None -> 0
  in
  Alcotest.(check int) "outer spans all recorded" 200 (calls "outer");
  Alcotest.(check int)
    "inner spans all nested under outer, never under another thread's frame"
    200 (calls "outer/inner");
  Alcotest.(check int)
    "no span aggregated at a corrupted path" 2 (List.length spans)

(* Cache listings must be deterministic whatever order the hash table
   iterates in. *)
let test_cache_entries_sorted () =
  let c = Cache.create ~capacity:64 () in
  List.iter
    (fun p -> Cache.add c p (Eval.point p))
    (Space.enumerate (Option.get (Space.find_preset "smoke")));
  let keys =
    List.map (fun (p, _) -> Gap_dse.Key.of_point p) (Cache.entries c)
  in
  Alcotest.(check bool)
    "entries sorted by key" true
    (keys = List.sort String.compare keys);
  Alcotest.(check int) "all entries listed" 4 (List.length keys)

let suite =
  [
    ("protocol round-trip", `Quick, test_protocol_roundtrip);
    ("address parsing", `Quick, test_addr_parsing);
    ("eval responses byte-identical to CLI", `Quick, test_serve_eval_byte_identical);
    ("N concurrent identical requests, 1 eval", `Quick, test_concurrent_identical_coalesce);
    ("client churn beside a long-lived conn", `Quick, test_client_churn);
    ("poisoned request returns typed error", `Quick, test_poisoned_request_typed_error);
    ("malformed line survives", `Quick, test_malformed_line_survives);
    ("sweep and pareto over the wire", `Quick, test_sweep_and_pareto_ops);
    ("store survives restart", `Quick, test_store_survives_restart);
    ("stop idempotent, socket removed", `Quick, test_stop_idempotent_and_refuses_new_conns);
    ("shutdown request stops server", `Quick, test_shutdown_request_stops_server);
    ("history concurrent append", `Quick, test_history_concurrent_append_loses_nothing);
    ("span stacks per thread", `Quick, test_span_stacks_per_thread);
    ("cache entries sorted", `Quick, test_cache_entries_sorted);
  ]

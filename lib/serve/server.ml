module Json = Gap_obs.Json
module Obs = Gap_obs.Obs
module History = Gap_obs.History
module Stage_error = Gap_resilience.Stage_error
module Fault = Gap_resilience.Fault
module Supervisor = Gap_resilience.Supervisor
module Space = Gap_dse.Space
module Eval = Gap_dse.Eval
module Key = Gap_dse.Key
module Cache = Gap_dse.Cache
module Pool = Gap_dse.Pool
module Frontier = Gap_dse.Frontier

type config = {
  addr : Protocol.addr;
  domains : int;
  store : string option;
  capacity : int;
  queue_bound : int;
  fair_share : int;
  batch_max : int;
  history : string option;
  idle_timeout_s : float option;
}

let default_config addr =
  {
    addr;
    domains = 1;
    store = None;
    capacity = 4096;
    queue_bound = 64;
    fair_share = 8;
    batch_max = 256;
    history = None;
    idle_timeout_s = None;
  }

(* One in-flight evaluation. Requests for the same key attach to the same
   slot; the scheduler fills [sl_result] exactly once and broadcasts. *)
type slot = {
  sl_key : string;
  sl_point : Space.point;
  sl_client : int;  (* owner for the queue-bound accounting *)
  mutable sl_result : (Eval.metrics, Stage_error.t) result option;
}

type client_q = {
  cl_id : int;
  cl_queue : slot Queue.t;  (* enqueued, not yet handed to a batch *)
  mutable cl_inflight : int;  (* enqueued or batched, not yet resolved *)
  mutable cl_gone : bool;  (* disconnected; reap once inflight drains *)
}

type stats = {
  requests : int;
  evals : int;
  coalesced : int;
  cache_hits : int;
  errors : int;
  batches : int;
  max_batch : int;
  clients_seen : int;
  idle_evictions : int;
  flush_failures : int;
}

type t = {
  cfg : config;
  lock : Mutex.t;
  work_cond : Condition.t;  (* scheduler: work arrived / shutdown *)
  done_cond : Condition.t;  (* waiters: results landed / queue room freed *)
  stopped_cond : Condition.t;
  cache : Cache.t;
  inflight : (string, slot) Hashtbl.t;
  clients : (int, client_q) Hashtbl.t;
  mutable client_order : int list;  (* ascending ids: round-robin universe *)
  mutable rr_cursor : int;  (* rotate fairness start point per batch *)
  mutable n_queued : int;  (* total slots sitting in client queues *)
  mutable next_client : int;
  mutable stopping : bool;
  mutable stopped : bool;
  mutable listen_fd : Unix.file_descr option;
  mutable conns : Unix.file_descr list;  (* live accepted sockets *)
  mutable accept_thread : Thread.t option;
  mutable sched_thread : Thread.t option;
  (* accounting (under [lock]) *)
  mutable n_requests : int;
  mutable n_evals : int;
  mutable n_coalesced : int;
  mutable n_cache_hits : int;
  mutable n_errors : int;
  mutable n_batches : int;
  mutable max_batch : int;
  mutable clients_seen : int;
  mutable n_idle_evictions : int;
  mutable n_flush_failures : int;
}

let create cfg =
  (* force the evaluator's memoized anchors before any worker domain or
     request thread can race the lazies *)
  Eval.warmup ();
  {
    cfg;
    lock = Mutex.create ();
    work_cond = Condition.create ();
    done_cond = Condition.create ();
    stopped_cond = Condition.create ();
    cache = Cache.create ~capacity:cfg.capacity ?store:cfg.store ();
    inflight = Hashtbl.create 64;
    clients = Hashtbl.create 16;
    client_order = [];
    rr_cursor = 0;
    n_queued = 0;
    next_client = 0;
    stopping = false;
    stopped = false;
    listen_fd = None;
    conns = [];
    accept_thread = None;
    sched_thread = None;
    n_requests = 0;
    n_evals = 0;
    n_coalesced = 0;
    n_cache_hits = 0;
    n_errors = 0;
    n_batches = 0;
    max_batch = 0;
    clients_seen = 0;
    n_idle_evictions = 0;
    n_flush_failures = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* --- client bookkeeping (callers hold the lock) --- *)

let register_client t =
  let id = t.next_client in
  t.next_client <- id + 1;
  t.clients_seen <- t.clients_seen + 1;
  let cl = { cl_id = id; cl_queue = Queue.create (); cl_inflight = 0; cl_gone = false } in
  Hashtbl.add t.clients id cl;
  t.client_order <- List.sort compare (id :: t.client_order);
  cl

let reap_client t cl =
  if cl.cl_gone && cl.cl_inflight = 0 && Queue.is_empty cl.cl_queue then begin
    Hashtbl.remove t.clients cl.cl_id;
    t.client_order <- List.filter (fun i -> i <> cl.cl_id) t.client_order
  end

let release_client t cl =
  cl.cl_gone <- true;
  reap_client t cl

(* --- the scheduler --- *)

(* Round-robin batch collection: walk the client list starting at the
   rotating cursor, taking at most [fair_share] slots per client per pass,
   repeating passes until [batch_max] or every queue is empty. A client
   flooding its (bounded) queue therefore delays a one-point client by at
   most one pass, not by its whole backlog. Callers hold the lock. *)
let collect_batch t =
  let order =
    match t.client_order with
    | [] -> []
    | ids ->
        let n = List.length ids in
        let k = t.rr_cursor mod n in
        let rec rotate i = function
          | [] -> []
          | l when i = 0 -> l
          | x :: rest -> rotate (i - 1) rest @ [ x ]
        in
        t.rr_cursor <- t.rr_cursor + 1;
        rotate k ids
  in
  let batch = ref [] in
  let n = ref 0 in
  let progress = ref true in
  while !progress && !n < t.cfg.batch_max do
    progress := false;
    List.iter
      (fun id ->
        match Hashtbl.find_opt t.clients id with
        | None -> ()
        | Some cl ->
            let take = ref 0 in
            while
              !take < t.cfg.fair_share
              && !n < t.cfg.batch_max
              && not (Queue.is_empty cl.cl_queue)
            do
              batch := Queue.pop cl.cl_queue :: !batch;
              t.n_queued <- t.n_queued - 1;
              incr take;
              incr n;
              progress := true
            done)
      order
  done;
  Array.of_list (List.rev !batch)

let resolve_batch t batch outcomes =
  t.n_evals <- t.n_evals + Array.length batch;
  Array.iteri
    (fun i slot ->
      let outcome = outcomes.(i) in
      slot.sl_result <- Some outcome;
      Hashtbl.remove t.inflight slot.sl_key;
      (match outcome with
      | Ok m -> Cache.add t.cache slot.sl_point m
      | Error _ -> ());
      match Hashtbl.find_opt t.clients slot.sl_client with
      | Some cl ->
          cl.cl_inflight <- cl.cl_inflight - 1;
          reap_client t cl
      | None -> ())
    batch;
  (* one crash-only append per batch: a kill at any instant leaves at worst
     a torn tail recovery truncates. A failing disk must not kill the
     scheduler — the typed error is recorded and the pending records stay
     queued for the next batch's attempt. *)
  match Cache.try_flush t.cache with
  | Ok () -> ()
  | Error e ->
      t.n_flush_failures <- t.n_flush_failures + 1;
      Obs.incr "serve.flush_failures";
      Obs.event "serve.flush_failed" [ ("error", Stage_error.to_json e) ]

(* Run one batch through the supervised pool. [Fault.point "serve.batch"]
   sits inside the retry scope, so an injected transient recovers invisibly;
   on exhaustion every slot in the batch resolves with the typed error
   instead of the scheduler dying and wedging its clients. *)
let eval_batch t pts =
  let run () =
    Obs.span "serve.batch"
      ~attrs:[ ("jobs", Json.Int (Array.length pts)) ]
      (fun () ->
        Fault.point "serve.batch";
        Pool.map ~domains:t.cfg.domains ~stage:"serve.eval" Eval.point pts)
  in
  match Supervisor.retry ~stage:"serve.batch" run with
  | outcomes -> outcomes
  | exception Stage_error.Stage_failure e -> Array.map (fun _ -> Error e) pts

let scheduler_loop t =
  let running = ref true in
  while !running do
    let batch =
      locked t (fun () ->
          while t.n_queued = 0 && not t.stopping do
            Condition.wait t.work_cond t.lock
          done;
          if t.n_queued = 0 && t.stopping then begin
            running := false;
            [||]
          end
          else begin
            let b = collect_batch t in
            t.n_batches <- t.n_batches + 1;
            if Array.length b > t.max_batch then t.max_batch <- Array.length b;
            b
          end)
    in
    if Array.length batch > 0 then begin
      let pts = Array.map (fun s -> s.sl_point) batch in
      (* every evaluation runs through the supervised pool: a poisoned
         point produces a typed Stage_error outcome, never a dead server *)
      let outcomes = eval_batch t pts in
      locked t (fun () ->
          resolve_batch t batch outcomes;
          Condition.broadcast t.done_cond)
    end
  done;
  locked t (fun () ->
      (match Cache.try_flush t.cache with
      | Ok () -> ()
      | Error e ->
          t.n_flush_failures <- t.n_flush_failures + 1;
          Obs.incr "serve.flush_failures";
          Obs.event "serve.flush_failed" [ ("error", Stage_error.to_json e) ]);
      Condition.broadcast t.done_cond)

(* --- the request paths (called from connection threads) --- *)

(* Evaluate [pts] for [cl], pipelined through the shared machinery:
   cache hits resolve immediately, in-flight duplicates coalesce onto the
   existing slot, the rest enqueue under the per-client bound (blocking —
   and therefore back-pressuring the socket — when the bound is hit).
   Returns outcomes in input order. *)
let eval_points t cl pts =
  let n = Array.length pts in
  let staged = Array.make n None in
  locked t (fun () ->
      let fresh = ref false in
      Array.iteri
        (fun i p ->
          match Cache.find t.cache p with
          | Some m ->
              t.n_cache_hits <- t.n_cache_hits + 1;
              Obs.incr "serve.cache_hit";
              staged.(i) <- Some (`Done (Ok m))
          | None -> (
              let key = Key.of_point p in
              match Hashtbl.find_opt t.inflight key with
              | Some slot ->
                  t.n_coalesced <- t.n_coalesced + 1;
                  Obs.incr "serve.coalesced";
                  staged.(i) <- Some (`Wait slot)
              | None ->
                  while cl.cl_inflight >= t.cfg.queue_bound && not t.stopping do
                    Condition.wait t.done_cond t.lock
                  done;
                  if t.stopping then
                    staged.(i) <- Some (`Refused (Protocol.Overloaded "server shutting down"))
                  else begin
                    let slot =
                      { sl_key = key; sl_point = p; sl_client = cl.cl_id; sl_result = None }
                    in
                    Hashtbl.add t.inflight key slot;
                    Queue.push slot cl.cl_queue;
                    cl.cl_inflight <- cl.cl_inflight + 1;
                    t.n_queued <- t.n_queued + 1;
                    fresh := true;
                    staged.(i) <- Some (`Wait slot)
                  end))
        pts;
      if !fresh then Condition.signal t.work_cond;
      Array.map
        (function
          | Some (`Done r) -> Ok r
          | Some (`Refused e) -> Error e
          | Some (`Wait slot) ->
              while Option.is_none slot.sl_result do
                Condition.wait t.done_cond t.lock
              done;
              Ok (Option.get slot.sl_result)
          | None -> assert false)
        staged)

let point_metrics_json (p, m) =
  Json.Obj [ ("point", Space.point_json p); ("metrics", Eval.to_json m) ]

let eval_op t cl p =
  match (eval_points t cl [| p |]).(0) with
  | Ok (Ok m) -> Ok (Eval.to_json m)
  | Ok (Error e) -> Error (Protocol.Stage e)
  | Error e -> Error e

(* Chunked so one sweep request cannot occupy more than its queue bound at
   a time; within a chunk the pool still evaluates misses in parallel. *)
let eval_preset t cl space =
  let pts = Array.of_list (Space.enumerate space) in
  let n = Array.length pts in
  let out = Array.make n (Error (Protocol.Overloaded "unreached")) in
  let chunk = max 1 t.cfg.queue_bound in
  let i = ref 0 in
  while !i < n do
    let len = min chunk (n - !i) in
    let res = eval_points t cl (Array.sub pts !i len) in
    Array.blit res 0 out !i len;
    i := !i + len
  done;
  (pts, out)

let sweep_doc ~preset pts out =
  let kept = ref [] and failed = ref [] and refused = ref 0 in
  Array.iteri
    (fun i p ->
      match out.(i) with
      | Ok (Ok m) -> kept := (p, m) :: !kept
      | Ok (Error e) -> failed := (p, e) :: !failed
      | Error _ -> incr refused)
    pts;
  let kept = List.rev !kept and failed = List.rev !failed in
  ( kept,
    Json.Obj
      [
        ("preset", Json.Str preset);
        ("lattice", Json.Int (Array.length pts));
        ("evaluated", Json.Int (List.length kept));
        ("refused", Json.Int !refused);
        ( "failed",
          Json.List
            (List.map
               (fun (p, e) ->
                 Json.Obj
                   [
                     ("point", Space.point_json p);
                     ("error", Stage_error.to_json e);
                   ])
               failed) );
        ("points", Json.List (List.map point_metrics_json kept));
      ] )

let sweep_op t cl preset =
  match Space.find_preset preset with
  | None ->
      Error
        (Protocol.Bad_request
           (Printf.sprintf "unknown preset %S; available: %s" preset
              (String.concat ", " (Space.preset_names ()))))
  | Some space ->
      let pts, out = eval_preset t cl space in
      let _, doc = sweep_doc ~preset pts out in
      Ok doc

let pareto_op t cl preset =
  match Space.find_preset preset with
  | None ->
      Error
        (Protocol.Bad_request
           (Printf.sprintf "unknown preset %S; available: %s" preset
              (String.concat ", " (Space.preset_names ()))))
  | Some space ->
      let pts, out = eval_preset t cl space in
      let kept, _ = sweep_doc ~preset pts out in
      let frontier =
        kept
        |> List.map (fun ((_, m) as pm) -> (pm, Frontier.of_metrics m))
        |> Frontier.pareto
        |> List.stable_sort (fun (_, a) (_, b) ->
               Float.compare a.Frontier.delay_ps b.Frontier.delay_ps)
      in
      Ok
        (Json.Obj
           [
             ("preset", Json.Str preset);
             ( "frontier",
               Json.List
                 (List.map (fun ((p, m), _) -> point_metrics_json (p, m)) frontier)
             );
           ])

let stats t =
  locked t (fun () ->
      {
        requests = t.n_requests;
        evals = t.n_evals;
        coalesced = t.n_coalesced;
        cache_hits = t.n_cache_hits;
        errors = t.n_errors;
        batches = t.n_batches;
        max_batch = t.max_batch;
        clients_seen = t.clients_seen;
        idle_evictions = t.n_idle_evictions;
        flush_failures = t.n_flush_failures;
      })

let stats_json t =
  locked t (fun () ->
      let cs = Cache.stats t.cache in
      Json.Obj
        [
          ("requests", Json.Int t.n_requests);
          ("evals", Json.Int t.n_evals);
          ("coalesced", Json.Int t.n_coalesced);
          ("cache_hits", Json.Int t.n_cache_hits);
          ("errors", Json.Int t.n_errors);
          ("batches", Json.Int t.n_batches);
          ("max_batch", Json.Int t.max_batch);
          ("clients_seen", Json.Int t.clients_seen);
          ("idle_evictions", Json.Int t.n_idle_evictions);
          ("flush_failures", Json.Int t.n_flush_failures);
          ("queue_bound", Json.Int t.cfg.queue_bound);
          ("fair_share", Json.Int t.cfg.fair_share);
          ("domains", Json.Int t.cfg.domains);
          ( "cache",
            Json.Obj
              [
                ("entries", Json.Int cs.Cache.entries);
                ("capacity", Json.Int cs.Cache.capacity);
                ("hits", Json.Int cs.Cache.hits);
                ("misses", Json.Int cs.Cache.misses);
                ("evictions", Json.Int cs.Cache.evictions);
                ("hit_rate", Json.Float (Cache.hit_rate cs));
              ] );
        ])

(* --- shutdown --- *)

let stop t =
  let first =
    locked t (fun () ->
        if t.stopping then false
        else begin
          t.stopping <- true;
          Condition.broadcast t.work_cond;
          Condition.broadcast t.done_cond;
          true
        end)
  in
  if first then begin
    (* Unblock a thread parked in accept(): closing the fd is NOT enough on
       Linux (the blocked syscall holds its own reference), so shut the
       listener down where the OS allows it and self-connect as the
       portable fallback — the accept loop sees [stopping] and exits. *)
    (match t.listen_fd with
    | Some fd -> (
        (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        try
          let sa = Protocol.sockaddr_of_addr t.cfg.addr in
          let s =
            Unix.socket ~cloexec:true (Unix.domain_of_sockaddr sa)
              Unix.SOCK_STREAM 0
          in
          (try Unix.connect s sa with Unix.Unix_error _ -> ());
          try Unix.close s with Unix.Unix_error _ -> ()
        with Unix.Unix_error _ -> ())
    | None -> ());
    (* the scheduler drains every queued slot before exiting, so attached
       waiters all get real results *)
    (match t.sched_thread with Some th -> Thread.join th | None -> ());
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (match t.listen_fd with
    | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    t.listen_fd <- None;
    (match t.cfg.addr with
    | Protocol.Unix_sock path -> ( try Sys.remove path with Sys_error _ -> ())
    | Protocol.Tcp _ -> ());
    (* wake blocked readers: a half-closed socket reads EOF, ending its
       connection thread. Under the lock: a connection thread leaves
       [t.conns] before it closes its fd, so every fd listed is still open
       and cannot be a reused number belonging to someone else. *)
    locked t (fun () ->
        List.iter
          (fun fd ->
            try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
          t.conns);
    locked t (fun () ->
        match Cache.try_flush t.cache with
        | Ok () -> ()
        | Error e ->
            t.n_flush_failures <- t.n_flush_failures + 1;
            Obs.incr "serve.flush_failures";
            Obs.event "serve.flush_failed" [ ("error", Stage_error.to_json e) ]);
    (match t.cfg.history with
    | Some store ->
        let s = stats t in
        History.append store
          (History.make ~label:"serve"
             [
               ("serve.requests", float_of_int s.requests);
               ("serve.evals", float_of_int s.evals);
               ("serve.coalesced", float_of_int s.coalesced);
               ("serve.cache_hits", float_of_int s.cache_hits);
               ("serve.errors", float_of_int s.errors);
             ])
    | None -> ());
    locked t (fun () ->
        t.stopped <- true;
        Condition.broadcast t.stopped_cond)
  end
  else
    locked t (fun () ->
        while not t.stopped do
          Condition.wait t.stopped_cond t.lock
        done)

let wait t =
  locked t (fun () ->
      while not t.stopped do
        Condition.wait t.stopped_cond t.lock
      done)

(* --- connections --- *)

let handle_request t cl req =
  let body =
    match req.Protocol.op with
    | Protocol.Eval p -> eval_op t cl p
    | Protocol.Sweep preset -> sweep_op t cl preset
    | Protocol.Pareto preset -> pareto_op t cl preset
    | Protocol.Stats -> Ok (stats_json t)
    | Protocol.Ping -> Ok (Json.Str "pong")
    | Protocol.Shutdown -> Ok (Json.Str "stopping")
  in
  { Protocol.r_id = req.Protocol.id; body }

let remove_conn t fd =
  locked t (fun () -> t.conns <- List.filter (fun c -> c != fd) t.conns)

(* A line-at-a-time socket reader built on [select], so a connection thread
   parked on a silent client wakes up when the idle deadline passes instead
   of blocking in [read] forever. Carries its own buffer of bytes read past
   the last newline. *)
type read_outcome = Line of string | Eof | Idle

let conn_reader fd =
  let pending = ref "" in
  let chunk = Bytes.create 4096 in
  let take_line () =
    match String.index_opt !pending '\n' with
    | None -> None
    | Some i ->
        let line = String.sub !pending 0 i in
        pending := String.sub !pending (i + 1) (String.length !pending - i - 1);
        Some line
  in
  let rec next timeout_s =
    match take_line () with
    | Some l -> Line l
    | None -> (
        let readable =
          match timeout_s with
          | None -> true (* no deadline: block in read itself *)
          | Some s -> (
              match Unix.select [ fd ] [] [] s with
              | [], _, _ -> false
              | _ -> true
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> true)
        in
        if not readable then Idle
        else
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 ->
              (* EOF with unterminated leftover: deliver it as a last line *)
              if !pending = "" then Eof
              else begin
                let l = !pending in
                pending := "";
                Line l
              end
          | n ->
              pending := !pending ^ Bytes.sub_string chunk 0 n;
              next timeout_s
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> next timeout_s)
  in
  next

let handle_conn t fd =
  let oc = Unix.out_channel_of_descr fd in
  let cl = locked t (fun () -> register_client t) in
  let respond resp =
    output_string oc (Protocol.render_response resp);
    output_char oc '\n';
    flush oc
  in
  let next_line = conn_reader fd in
  (try
     let running = ref true in
     while !running do
       match next_line t.cfg.idle_timeout_s with
       | Eof -> running := false
       | Idle ->
           (* evict, but tell the client why if its socket still accepts a
              write: a typed timeout beats a bare hangup *)
           let timeout = Option.value ~default:0. t.cfg.idle_timeout_s in
           locked t (fun () -> t.n_idle_evictions <- t.n_idle_evictions + 1);
           Obs.incr "serve.idle_evictions";
           (match Unix.select [] [ fd ] [] 0. with
           | _, _ :: _, _ ->
               (try
                  respond
                    {
                      Protocol.r_id = 0;
                      body =
                        Error
                          (Protocol.Timeout
                             (Printf.sprintf
                                "idle for more than %gs; disconnecting" timeout));
                    }
                with Sys_error _ | Unix.Unix_error _ -> ())
           | _ -> ()
           | exception Unix.Unix_error _ -> ());
           running := false
       | Line line when String.trim line = "" -> ()
       | Line line ->
           (* every request runs under a span; spans are thread-safe, so
              concurrent connection threads each keep their own stack *)
           Obs.span "serve.request" (fun () ->
               locked t (fun () -> t.n_requests <- t.n_requests + 1);
               Obs.incr "serve.requests";
               match Protocol.parse_request line with
               | Error e ->
                   Obs.annotate [ ("op", Json.Str "invalid") ];
                   locked t (fun () -> t.n_errors <- t.n_errors + 1);
                   Obs.incr "serve.errors";
                   respond
                     { Protocol.r_id = 0; body = Error (Protocol.Bad_request e) }
               | Ok req ->
                   Obs.annotate [ ("op", Json.Str (Protocol.op_name req.Protocol.op)) ];
                   let resp = handle_request t cl req in
                   (match resp.Protocol.body with
                   | Error _ ->
                       locked t (fun () -> t.n_errors <- t.n_errors + 1);
                       Obs.incr "serve.errors"
                   | Ok _ -> ());
                   respond resp;
                   match req.Protocol.op with
                   | Protocol.Shutdown ->
                       running := false;
                       (* run the graceful shutdown off this thread so the
                          connection can close promptly *)
                       ignore (Thread.create stop t)
                   | _ -> ())
     done
   with
  | Sys_error _ | Unix.Unix_error _ -> ()
  | End_of_file -> ());
  locked t (fun () -> release_client t cl);
  remove_conn t fd;
  (* [oc] owns the fd: closing it is the one close of the connection *)
  (try close_out_noerr oc with _ -> ())

let accept_loop t fd =
  let running = ref true in
  while !running do
    match Unix.accept ~cloexec:true fd with
    | conn, _ ->
        if locked t (fun () -> t.stopping) then begin
          (* the wake-up self-connection from [stop], or a client racing
             the shutdown: refuse and leave *)
          (try Unix.close conn with Unix.Unix_error _ -> ());
          running := false
        end
        else begin
          locked t (fun () -> t.conns <- conn :: t.conns);
          ignore (Thread.create (fun () -> handle_conn t conn) ())
        end
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _)
      ->
        running := locked t (fun () -> not t.stopping)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let bind_socket addr =
  let sa = Protocol.sockaddr_of_addr addr in
  let fd =
    match addr with
    | Protocol.Unix_sock path ->
        (* replace a stale socket from a previous daemon *)
        (try if Sys.file_exists path then Unix.unlink path
         with Sys_error _ | Unix.Unix_error _ -> ());
        Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
    | Protocol.Tcp _ ->
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        fd
  in
  (try
     Unix.bind fd sa;
     Unix.listen fd 256
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let start t =
  (* a client vanishing mid-response must error the write, not kill the
     process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let fd = bind_socket t.cfg.addr in
  t.listen_fd <- Some fd;
  t.sched_thread <- Some (Thread.create scheduler_loop t);
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t fd) ())

module Json = Gap_obs.Json

(* [ic] and [oc] wrap the one socket fd; [oc] owns it. *)
type t = {
  ic : in_channel;
  oc : out_channel;
  mutable next_id : int;
  mutable closed : bool;
}

let connect addr =
  let sa = Protocol.sockaddr_of_addr addr in
  let domain = Unix.domain_of_sockaddr sa in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd sa
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  {
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
    next_id = 1;
    closed = false;
  }

type connect_error =
  | Connect_timeout of {
      addr : string;
      attempts : int;
      elapsed_s : float;
      last_error : string;
    }

let connect_error_to_string = function
  | Connect_timeout { addr; attempts; elapsed_s; last_error } ->
      Printf.sprintf "connect %s: timed out after %d attempt%s in %.2fs (last error: %s)"
        addr attempts
        (if attempts = 1 then "" else "s")
        elapsed_s last_error

(* Deterministic exponential backoff: attempt [k] sleeps
   [min max_delay_s (base_delay_s * 2^k)] — no jitter, so a failing
   connect produces the same attempt schedule every run. The total
   [deadline_s] budget caps the loop: the final sleep is clipped to the
   time remaining, and one last attempt fires at the deadline so a daemon
   that binds exactly then is still caught. *)
let connect_retry ?(base_delay_s = 0.01) ?(max_delay_s = 0.5) ?(deadline_s = 5.0)
    addr =
  let start = Unix.gettimeofday () in
  let deadline_s = Float.max 0. deadline_s in
  let rec go k =
    match connect addr with
    | t -> Ok t
    | exception Unix.Unix_error (e, _, _) ->
        let last_error = Unix.error_message e in
        let elapsed = Unix.gettimeofday () -. start in
        if elapsed >= deadline_s then
          Error
            (Connect_timeout
               {
                 addr = Protocol.addr_to_string addr;
                 attempts = k + 1;
                 elapsed_s = elapsed;
                 last_error;
               })
        else begin
          let backoff =
            Float.min max_delay_s (base_delay_s *. Float.pow 2. (float_of_int k))
          in
          Unix.sleepf (Float.min backoff (deadline_s -. elapsed));
          go (k + 1)
        end
  in
  go 0

(* Close the fd exactly once, through [oc]. Closing [ic] as well would
   close the same fd number a second time, and in a threaded process that
   number may by then belong to a socket another thread just opened. [ic]
   is left unclosed (channels never close their fd on collection) and is
   unreachable through [t] once [closed] is set. *)
let close t =
  if not t.closed then begin
    t.closed <- true;
    close_out_noerr t.oc
  end

let send_line t line =
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc

let send_raw t s =
  output_string t.oc s;
  flush t.oc

let raw_roundtrip t line =
  if t.closed then Error "connection closed"
  else
    match
      send_line t line;
      input_line t.ic
    with
    | resp -> Ok resp
    | exception End_of_file -> Error "connection closed"
    | exception Sys_error e -> Error e

let request t op =
  let id = t.next_id in
  t.next_id <- id + 1;
  let line = Json.to_string (Protocol.request_to_json { Protocol.id; op }) in
  match raw_roundtrip t line with
  | Error e -> Error (Protocol.Bad_request ("transport: " ^ e))
  | Ok resp_line -> (
      match Json.of_string resp_line with
      | Error e -> Error (Protocol.Bad_request ("malformed response: " ^ e))
      | Ok j -> (
          match Protocol.response_of_json j with
          | Error e -> Error (Protocol.Bad_request e)
          | Ok r when r.Protocol.r_id <> id ->
              Error
                (Protocol.Bad_request
                   (Printf.sprintf "response id %d for request %d"
                      r.Protocol.r_id id))
          | Ok r -> r.Protocol.body))

let eval t p = request t (Protocol.Eval p)

let ping t =
  match request t Protocol.Ping with Ok _ -> true | Error _ -> false

let shutdown t =
  match request t Protocol.Shutdown with Ok _ | Error _ -> ()

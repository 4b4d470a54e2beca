(* Timing, statistics and the result document every pbench subcommand
   prints as its last stdout line. *)

module Json = Gap_obs.Json

let now_s () = Int64.to_float (Gap_obs.Obs.now_ns ()) *. 1e-9

let time f =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* nearest-rank percentile; [xs] non-empty *)
let percentile q xs =
  let a = sorted xs in
  let n = Array.length a in
  let k = int_of_float (Float.ceil (q /. 100. *. float_of_int n)) - 1 in
  a.(max 0 (min (n - 1) k))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum xs = List.fold_left ( +. ) 0. xs

(* per-pass samples keyed by metric name, insertion order kept *)
module Samples = struct
  type t = { tbl : (string, float list) Hashtbl.t; mutable order : string list }

  let create () = { tbl = Hashtbl.create 32; order = [] }

  let add t name v =
    match Hashtbl.find_opt t.tbl name with
    | Some vs -> Hashtbl.replace t.tbl name (v :: vs)
    | None ->
        Hashtbl.replace t.tbl name [ v ];
        t.order <- name :: t.order

  let medians t =
    List.rev_map (fun name -> (name, median (Hashtbl.find t.tbl name))) t.order
end

(* Adds into one pass's running totals, flushed into [Samples] per pass. *)
module Totals = struct
  type t = (string, float) Hashtbl.t

  let create () : t = Hashtbl.create 32

  let add (t : t) name v =
    Hashtbl.replace t name (v +. Option.value ~default:0. (Hashtbl.find_opt t name))

  let flush (t : t) samples =
    Hashtbl.iter (fun name v -> Samples.add samples name v) t;
    Hashtbl.reset t
end

type result = {
  attempted : int;
  failed : int;
  digest : string;
  e2e : (string * float) list;
  layers : (string * float) list;
  notes : string list;
}

let print_result r =
  let floats kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) kvs) in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failed);
            ("digest", Json.Str r.digest);
            ("e2e", floats r.e2e);
            ("layers", floats r.layers);
            ("notes", Json.List (List.map (fun s -> Json.Str s) r.notes));
          ]))

(* digest of a list of strings, framed so concatenation is unambiguous *)
let digest parts =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map (fun s -> Printf.sprintf "%d:%s" (String.length s) s) parts)))

(* peak resident set of a live process, from /proc (Linux); 0 elsewhere *)
let peak_rss_mb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB"
              (fun kb -> kb /. 1024.)
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

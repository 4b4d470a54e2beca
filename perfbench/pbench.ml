(* pbench: the in-process half of the benchmark, driven by perfbench/run.py.

     pbench physical --seed N --seconds S [--trace FILE] [--smoke]
     pbench dse --repro EXE --work DIR --seed N --seconds S [--traced] [--smoke]
     pbench layers TRACE
     pbench meta

   Each subcommand prints its result as one JSON line on stdout (see
   Measure.print_result). *)

let usage () =
  prerr_endline
    "usage: pbench (physical | dse | layers TRACE | meta) [--seed N] [--seconds S] \
     [--trace FILE] [--traced] [--smoke] [--repro EXE] [--work DIR]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let flag name = List.mem name args in
  let int name = Option.fold ~none:0 ~some:int_of_string (opt name args) in
  let float name = Option.fold ~none:1. ~some:float_of_string (opt name args) in
  let required name = match opt name args with Some v -> v | None -> usage () in
  match args with
  | "physical" :: _ ->
      let trace_file = opt "--trace" args in
      Measure.print_result
        (Physical.run ~seed:(int "--seed") ~seconds:(float "--seconds")
           ~traced:(Option.is_some trace_file) ~smoke:(flag "--smoke")
           ~trace_file:(Option.value trace_file ~default:""))
  | "dse" :: _ ->
      Measure.print_result
        (Dse.run ~repro:(required "--repro") ~work:(required "--work")
           ~seed:(int "--seed") ~seconds:(float "--seconds")
           ~traced:(flag "--traced") ~smoke:(flag "--smoke"))
  | [ "layers"; trace ] -> Measure.print_result (Layers.of_trace trace)
  | [ "meta" ] ->
      print_endline
        (Gap_obs.Json.to_string (Gap_obs.History.meta_json (Gap_obs.History.meta_now ())))
  | _ -> usage ()

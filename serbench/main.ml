(* serbench: the serprop benchmark.

     bash serbench/run.sh --workload W --seed N --seconds S --trace 0|1

   builds this executable from source and runs one workload (README.md).
   The workload's netlists are generated from --seed and checked against
   serbench/pins.json.  --trace 0 times the workload with tracing off and
   prints the end-to-end metrics; --trace 1 runs traced operations beside
   untraced ones and prints the per-layer metrics.  The last stdout line is
   one JSON object {correct, attempted, failed, metrics}; the exit code is 1
   when a correctness check or an operation failed, 2 on a usage, checkout
   or pin error (then no result is printed). *)

open Serbench

let pins_file = "serbench/pins.json"
let out_dir = "serbench/_out"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("serbench: " ^ s); exit 2) fmt

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let nproc = ref 0 and flambda = ref "unknown" and repin = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat " | " Inputs.workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--nproc", Arg.Set_int nproc, "N online processors (machine block)");
      ("--flambda", Arg.Set_string flambda, "B compiler built with flambda (machine block)");
      ("--repin", Arg.Set repin, " print fresh pins for every workload and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "serbench --workload NAME --seed N --seconds S --trace 0|1";
  if !repin then begin
    print_endline
      (Obs.Json.to_string ~pretty:true
         (Obs.Json.Obj
            (List.map
               (fun w -> (w, Inputs.pin_json (Inputs.pin_of_workload w)))
               Inputs.workloads)));
    exit 0
  end;
  let workload = !workload and seed = !seed in
  if not (List.mem workload Inputs.workloads) then
    die "--workload must be one of %s" (String.concat ", " Inputs.workloads);
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let pin =
    match List.assoc_opt workload (try Inputs.load_pins pins_file with Failure e -> die "%s" e) with
    | Some p -> p
    | None -> die "%s has no pin for %s" pins_file workload
  in
  let input = Inputs.generate ~seed workload in
  (match Inputs.pin_problems pin ~seed input with
  | [] -> ()
  | problems ->
    die "inputs of %s at seed %d differ from the pin: %s" workload seed
      (String.concat "; " problems));
  Printf.printf "machine %s\n%!"
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("nproc", Obs.Json.int !nproc);
            ("recommended_domains", Obs.Json.int (Domain.recommended_domain_count ()));
            ("ocaml", Obs.Json.String Sys.ocaml_version);
            ("flambda", Obs.Json.String !flambda);
            ("word_size", Obs.Json.int Sys.word_size);
            ("timed_domains", Obs.Json.int 1);
          ]));
  (* %Dif is taken on the workload's netlist at the recorded seed, whatever
     --seed is, so it moves with the program and not with the generator
     (README.md). *)
  let accuracy =
    let t = Inputs.generate ~seed:pin.recorded_seed workload in
    Bench_format.Parser.parse_string ~name:t.name t.source
  in
  let seconds = float_of_int (max 1 !seconds) and trace = !trace = 1 in
  let metrics =
    match workload with
    | "serd-session" -> Session.run ~seed ~seconds ~trace ~accuracy input
    | _ -> Sweep.run ~seed ~seconds ~trace ~accuracy input
  in
  if trace then Layers.write_trace ~dir:out_dir workload;
  Measure.print_result metrics;
  exit (if !Measure.failed = 0 then 0 else 1)

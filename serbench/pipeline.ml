(* The operations the sweep workloads time, written as the calls the tools
   make, with one span around each layer call.  With the null tracer the
   spans cost nothing, so the same code is timed untraced. *)

let span tracer name f = Obs.Trace.span tracer ~cat:Spans.cat name f

(* The ranked report ser_estimate prints: circuit line, total, top-10 table. *)
let render (report : Epp.Ser_estimator.report) =
  let b = Buffer.create 2048 in
  Buffer.add_string b (Format.asprintf "%a@." Netlist.Circuit.pp report.circuit);
  Printf.bprintf b "total SER: %.6f FIT (MTBF %.3g hours)\n" report.total_fit
    (Seu_model.Fit.mtbf_hours report.total_fit);
  List.iter
    (fun (e : Epp.Ranking.entry) ->
      let n = e.report in
      Printf.bprintf b "%d %s %.3g %s %s %.5f %d\n" e.rank n.name n.r_seu
        (Report.Table.f3 n.p_sensitized)
        (Report.Table.f3 n.p_latched_effective)
        n.fit n.cone_size)
    (Epp.Ranking.top_k report 10);
  Buffer.contents b

(* Signal probabilities as Epp_engine.create computes them when given none. *)
let signal_probabilities circuit =
  if Netlist.Circuit.ff_count circuit > 0 then (Sigprob.Sp_sequential.compute circuit).result
  else Sigprob.Sp_topological.compute circuit

(* The program's set-up of a circuit before its first query: parse,
   analysis context, signal probabilities, engine. *)
let setup tracer (input : Inputs.text) =
  let circuit =
    span tracer "parse" (fun () -> Bench_format.Parser.parse_string ~name:input.name input.source)
  in
  span tracer "analysis" (fun () -> ignore (Netlist.Analysis.get circuit));
  let sp = span tracer "sp" (fun () -> signal_probabilities circuit) in
  span tracer "epp" (fun () -> Epp.Epp_engine.create ~sp circuit)

type cold = {
  engine : Epp.Epp_engine.t;
  results : Epp.Epp_engine.site_result list;
  report : Epp.Ser_estimator.report;
}

(* ser_estimate's path, netlist text to ranked report, on one domain. *)
let cold tracer input =
  span tracer "sweep" @@ fun () ->
  let engine = setup tracer input in
  let results = span tracer "epp" (fun () -> Epp.Ser_estimator.analyze_all ~domains:1 engine) in
  let circuit = Epp.Epp_engine.circuit engine in
  let report =
    span tracer "compose" (fun () -> Epp.Ser_estimator.of_site_results circuit results)
  in
  span tracer "emit" (fun () -> ignore (render report));
  { engine; results; report }

(* A repeat whole-circuit query on a loaded engine: the supervised sweep a
   resident serd engine or ser_harden runs, composed and ranked. *)
let warm tracer engine =
  span tracer "warm" @@ fun () ->
  let outcome = span tracer "epp" (fun () -> Epp.Supervisor.sweep_all ~domains:1 engine) in
  let report =
    span tracer "compose" (fun () ->
        Epp.Ser_estimator.of_site_results (Epp.Epp_engine.circuit engine)
          (Epp.Supervisor.results outcome))
  in
  span tracer "emit" (fun () -> ignore (render report));
  (outcome, report)

type edit = {
  plan : Epp.Incremental.plan;
  outcome : Epp.Supervisor.outcome;
  edited : Netlist.Circuit.t;
  edit_report : Epp.Ser_estimator.report;
}

(* The gate ser_harden's tmr strategy hardens first: the largest FIT. *)
let top_gate (report : Epp.Ser_estimator.report) =
  let c = report.circuit in
  match
    List.find_opt
      (fun (e : Epp.Ranking.entry) -> Netlist.Circuit.is_gate c e.report.node)
      (Epp.Ranking.ranked report)
  with
  | Some e -> e.report.node
  | None -> invalid_arg "top_gate: circuit has no gates"

(* One ser_harden --strategy tmr step: triplicate [target], re-analyze
   incrementally from the warm outcome, compose and rank. *)
let edit tracer engine (prior : Epp.Supervisor.outcome) ~target =
  span tracer "edit" @@ fun () ->
  let circuit = Epp.Epp_engine.circuit engine in
  let delta, engine' =
    span tracer "rebase" (fun () ->
        let _, delta = Netlist.Transform.triplicate_delta circuit ~nodes:[ target ] in
        (delta, fst (Epp.Incremental.rebase engine delta)))
  in
  let plan =
    span tracer "plan" (fun () -> Epp.Incremental.plan ~before:engine ~after:engine' delta)
  in
  let outcome =
    span tracer "edit_sweep" (fun () ->
        Epp.Incremental.sweep ~domains:1 plan ~prior:prior.entries engine')
  in
  let edited = Netlist.Delta.after delta in
  let edit_report =
    span tracer "compose" (fun () ->
        Epp.Ser_estimator.of_site_results edited (Epp.Supervisor.results outcome))
  in
  span tracer "emit" (fun () -> ignore (render edit_report));
  { plan; outcome; edited; edit_report }

(* The sweep workloads, dense-sweep and cone-local-sweep: a closed loop of
   rounds on one netlist.  A round sets the program up once more (for
   setup_s), then runs a cold estimate, a warm repeat query on the cold
   engine and tmr edits from the warm outcome, so every timed operation
   kind sees the same stretch of host speed. *)

open Measure

type state = {
  input : Inputs.text;
  setups : samples;
  colds : samples;
  warms : samples;
  edits : samples;
  fits : (string * float) list ref;  (* operation kind, total FIT *)
  seed : int;
}

(* A timed operation, its time recorded in [into]. *)
let timed ?into f =
  let r, dt = op f in
  Option.iter (fun s -> record s dt) into;
  r

let untraced = Obs.Trace.null

(* Cold, warm, then [edits] repeats of the same edit.  Their total FITs
   are kept for the checks; the checks that need the results themselves
   run on the first round's, between its operations.  Returns the cold
   estimate. *)
let query_round st i ~edits ~cold ~warm ~edit =
  let (c : Pipeline.cold) = cold () in
  if i = 0 then
    check "64-site sample bit-identical to Epp_engine.analyze_site"
      (Checks.matches_reference ~seed:st.seed c.engine c.results);
  let outcome, (report : Epp.Ser_estimator.report) = warm c in
  let target = Pipeline.top_gate report in
  st.fits := ("cold", c.report.total_fit) :: ("warm", report.total_fit) :: !(st.fits);
  for k = 1 to edits do
    let (e : Pipeline.edit) = edit c outcome target in
    st.fits := ("edit", e.edit_report.total_fit) :: !(st.fits);
    let s = e.outcome.stats in
    check "edit outcome complete over the edited circuit"
      (s.total = Netlist.Circuit.node_count e.edited
      && s.quarantined = 0
      && e.outcome.completion = Epp.Diag.Complete);
    if i = 0 && k = 1 then
      check "first edit bit-identical to Transform.triplicate + cold Ser_estimator sweep"
        (Checks.matches_cold_triplicate (Epp.Epp_engine.circuit c.engine) ~target e)
  done;
  c

(* The edit is the cheapest operation, so a round repeats it to give it as
   many samples per run as the others' together. *)
let edits_per_round = 3

let plain_round st i =
  let into s = if i > 0 then Some s else None in
  ignore @@ query_round st i ~edits:edits_per_round
    ~cold:(fun () -> timed ?into:(into st.colds) (fun () -> Pipeline.cold untraced st.input))
    ~warm:(fun (c : Pipeline.cold) ->
      timed ?into:(into st.warms) (fun () -> Pipeline.warm untraced c.engine))
    ~edit:(fun (c : Pipeline.cold) outcome target ->
      timed ?into:(into st.edits) (fun () -> Pipeline.edit untraced c.engine outcome ~target))

(* A traced round.  Each operation kind whose overhead is measured runs
   twice back to back, the order alternating between rounds. *)
let traced_round st i =
  let both a b = back_to_back ~a_first:(i mod 2 = 0) a b in
  let bytes = String.length st.input.source in
  let c =
    query_round st i ~edits:1
      ~cold:(fun () ->
        let (((c : Pipeline.cold), t), traced_s), (_, plain) =
          both
            (fun () -> op (fun () -> Layers.traced (fun tracer -> Pipeline.cold tracer st.input)))
            (fun () -> op (fun () -> Pipeline.cold untraced st.input))
        in
        Layers.add_overhead "trace.overhead_pct" ~slow:traced_s ~fast:plain;
        Layers.add_query t ~bytes ~sites:(List.length c.results);
        Layers.add_saturation c.results;
        c)
      ~warm:(fun (c : Pipeline.cold) ->
        let (w, live), (_, plain) =
          both
            (fun () -> op (fun () -> Layers.live (fun () -> Pipeline.warm untraced c.engine)))
            (fun () -> op (fun () -> Pipeline.warm untraced c.engine))
        in
        Layers.add_overhead "obs.live_overhead_pct" ~slow:live ~fast:plain;
        w)
      ~edit:(fun (c : Pipeline.cold) outcome target ->
        let (e : Pipeline.edit), t =
          timed (fun () ->
              Layers.traced (fun tracer -> Pipeline.edit tracer c.engine outcome ~target))
        in
        Layers.add "edit.rebase_s" (Spans.total "rebase" t.spans);
        Layers.add "edit.plan_s" (Spans.total "plan" t.spans);
        Layers.add "edit.sweep_s" (Spans.total "edit_sweep" t.spans);
        Layers.add "edit.dirty_fraction" (Epp.Incremental.dirty_fraction e.plan);
        Layers.add_patched t;
        e)
  in
  (* the engine choice forced, and the dispatching sweep on 1 and 2 domains *)
  Layers.add "epp.batch_forced_s" (snd (op (fun () -> Epp.Epp_batch.analyze_all c.engine)));
  let sweep domains () = snd (op (fun () -> Epp.Ser_estimator.analyze_all ~domains c.engine)) in
  let one, two = both (sweep 1) (sweep 2) in
  Layers.add_ratio "parallel.speedup_2d" one two

let run ~seed ~seconds ~trace ~accuracy (input : Inputs.text) =
  let st =
    { input; setups = ref []; colds = ref []; warms = ref []; edits = ref []; fits = ref []; seed }
  in
  let setup () = ignore (timed ~into:st.setups (fun () -> Pipeline.setup untraced input)) in
  setup ();
  let peak =
    measure_loop ~min_rounds:(if trace then 2 else 3) ~seconds (fun i ->
        (* each round starts on a collected heap *)
        Gc.full_major ();
        if i > 0 then setup ();
        if trace && i > 0 then traced_round st i else plain_round st i)
  in
  (* checks and %Dif, outside the timed region *)
  let fits kind = List.filter_map (fun (k, f) -> if k = kind then Some f else None) !(st.fits) in
  check "cold total FIT bit-identical across repeats" (Checks.all_same (fits "cold"));
  check "supervised warm total FIT bit-identical to the cold estimate's"
    (Checks.all_same (fits "cold" @ fits "warm"));
  check "edit total FIT bit-identical across repeats" (Checks.all_same (fits "edit"));
  let dif = Checks.dif accuracy in
  check "%Dif compared some mid-range sites" (dif.sites > 0);
  if trace then begin
    let sites = Netlist.Circuit.node_count accuracy in
    Layers.add_sim dif ~epp_s_per_site:(Stats.median (Layers.values "epp.s") /. float_of_int sites);
    Layers.metrics ()
  end
  else
    [
      timing "sweep_s" "s" !(st.colds);
      timing ~scale:1000.0 "warm_ms" "ms" !(st.warms);
      timing ~scale:1000.0 "edit_ms" "ms" !(st.edits);
      timing "setup_s" "s" !(st.setups);
      metric "peak_heap_mb" "MB" peak;
      metric ~samples:dif.sites "dif_pct" "%" dif.dif_pct;
    ]

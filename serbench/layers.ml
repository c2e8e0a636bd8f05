(* Per-layer figures of traced operations, and the --trace 1 metric set.

   Each traced operation runs with a fresh tracer installed as the Obs hook
   (so library spans land in it too) and a live metrics registry; its
   figures are read from the span self times (Spans) and the counters the
   operation moved.  Every figure is sampled once per traced operation and
   reported as the median over the run, with its sample count. *)

(* Every per-layer metric, in print order, with its unit. *)
let metrics_spec =
  [
    ("parse.s", "s");
    ("parse.mb_per_s", "MB/s");
    ("analysis.s", "s");
    ("analysis.cache_hit_ratio", "ratio");
    ("analysis.patched_ratio", "ratio");
    ("sp.s", "s");
    ("sp.iterations", "count");
    ("sp.ns_per_node_eval", "ns");
    ("epp.s", "s");
    ("epp.sites_per_s", "1/s");
    ("epp.dispatch_batched", "ratio");
    ("epp.batch.mask_s", "s");
    ("epp.batch.propagate_s", "s");
    ("epp.batch.collect_s", "s");
    ("epp.gate_lane_evals", "count");
    ("epp.ns_per_gate_lane_eval", "ns");
    ("epp.lane_fill", "ratio");
    ("epp.batch_forced_s", "s");
    ("epp.saturated_fraction", "ratio");
    ("edit.rebase_s", "s");
    ("edit.plan_s", "s");
    ("edit.sweep_s", "s");
    ("edit.dirty_fraction", "ratio");
    ("compose.s", "s");
    ("emit.s", "s");
    ("service.s", "s");
    ("serd.decode_s", "s");
    ("serd.engine_build_s", "s");
    ("serd.sweep_s", "s");
    ("serd.encode_s", "s");
    ("serd.cache_hit_ratio", "ratio");
    ("serd.sites_swept_per_req", "count");
    ("obs.live_overhead_pct", "%");
    ("trace.overhead_pct", "%");
    ("trace.layer_coverage", "ratio");
    ("parallel.speedup_2d", "ratio");
    ("sim.s_per_site", "s");
    ("sim.speedup_vs_epp", "ratio");
  ]

let samples : (string, float list) Hashtbl.t = Hashtbl.create 64

let add name v =
  if not (List.mem_assoc name metrics_spec) then invalid_arg ("Layers.add: unknown metric " ^ name);
  if Float.is_finite v then
    Hashtbl.replace samples name (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))

(* [add name (num / den)] when [den] is positive. *)
let add_ratio name num den = if den > 0.0 then add name (num /. den)

let values name = Option.value ~default:[] (Hashtbl.find_opt samples name)

(* Medians with their sample counts; 0 with n=0 where the workload does not
   exercise the layer (README.md says which). *)
let metrics () =
  List.map
    (fun (name, unit_) ->
      match values name with
      | [] -> Measure.metric ~samples:0 name unit_ 0.0
      | xs -> Measure.metric ~samples:(List.length xs) name unit_ (Stats.median xs))
    metrics_spec

(* --- tracing one operation ----------------------------------------------------- *)

(* What one traced operation left behind: its closed spans and the
   counters and histogram sums it moved in [registry]. *)
type trace = {
  spans : Spans.span list;
  counter : string -> float;
  hist_sum : string -> float;
}

let hist_sum snap name =
  match Obs.Metrics.histogram_value snap name with
  | Some h -> h.Obs.Metrics.sum
  | None -> 0.0

(* Run [f ()] with a fresh live metrics registry installed as the Obs hook
   and nothing else, as serd runs, then restore the metrics hook. *)
let live f =
  let prev = Obs.Hooks.metrics () in
  Obs.Hooks.set_metrics (Obs.Metrics.create ());
  Fun.protect ~finally:(fun () -> Obs.Hooks.set_metrics prev) f

(* The tracer of the last traced operation, written out at the end. *)
let last_tracer = ref Obs.Trace.null

(* Run [f tracer] with a fresh tracer installed as the Obs hook and
   [registry] (a fresh one by default) as the metrics hook, then restore
   the hooks that were installed.  The coverage of the operation's spans is
   checked and sampled. *)
let traced ?registry f =
  let registry = match registry with Some r -> r | None -> Obs.Metrics.create () in
  let tracer = Obs.Trace.create () in
  let prev_metrics = Obs.Hooks.metrics () and prev_tracer = Obs.Hooks.tracer () in
  let before = Obs.Metrics.snapshot registry in
  Obs.Hooks.set_metrics registry;
  Obs.Hooks.set_tracer tracer;
  let r =
    Fun.protect
      ~finally:(fun () ->
        Obs.Hooks.set_metrics prev_metrics;
        Obs.Hooks.set_tracer prev_tracer)
      (fun () -> f tracer)
  in
  let after = Obs.Metrics.snapshot registry in
  last_tracer := tracer;
  let spans = Spans.closed (Obs.Trace.events tracer) in
  let coverage = Spans.coverage spans in
  Measure.check
    (Printf.sprintf "layer self times cover the traced operation (%.4f >= 0.95)" coverage)
    (coverage >= 0.95);
  add "trace.layer_coverage" coverage;
  ( r,
    {
      spans;
      counter =
        (fun n ->
          float_of_int (Obs.Metrics.counter_value after n - Obs.Metrics.counter_value before n));
      hist_sum = (fun n -> hist_sum after n -. hist_sum before n);
    } )

let self t layer = List.assoc layer (Spans.self_by_layer t.spans)
let present t layer = List.exists (fun s -> Spans.layer s = Some layer) t.spans

(* Figures of a traced query that analyzed [sites] sites of a netlist of
   [bytes] bytes.  A layer with no span in the query (parse, compose and
   emit run inside serd.request on serd) gets no sample. *)
let add_query t ~bytes ~sites =
  List.iter
    (fun l -> if present t l then add (l ^ ".s") (self t l))
    [ "parse"; "analysis"; "sp"; "epp"; "compose"; "emit"; "service" ];
  if present t "parse" then add_ratio "parse.mb_per_s" (float_of_int bytes /. 1e6) (self t "parse");
  let c = t.counter in
  add_ratio "analysis.cache_hit_ratio" (c "analysis.cache.hit")
    (c "analysis.cache.hit" +. c "analysis.cache.miss");
  let sp_s = self t "sp" in
  add "sp.iterations" (Float.max 1.0 (c "sp.fixpoint_iterations"));
  add_ratio "sp.ns_per_node_eval" (sp_s *. 1e9) (c "sp.node_evaluations");
  let sites = float_of_int sites in
  add_ratio "epp.sites_per_s" sites (self t "epp");
  add_ratio "epp.dispatch_batched" (c "epp.batch.sites") sites;
  let propagate = t.hist_sum "epp.batch.phase.propagate_seconds" in
  if c "epp.batch.blocks" > 0.0 then begin
    add "epp.batch.mask_s" (t.hist_sum "epp.batch.phase.mask_seconds");
    add "epp.batch.propagate_s" propagate;
    add "epp.batch.collect_s" (t.hist_sum "epp.batch.phase.collect_seconds");
    add "epp.gate_lane_evals" (c "epp.batch.gate_lane_evals");
    add_ratio "epp.ns_per_gate_lane_eval" (propagate *. 1e9) (c "epp.batch.gate_lane_evals");
    add_ratio "epp.lane_fill" (c "epp.batch.sites")
      (c "epp.batch.blocks" *. float_of_int Epp.Epp_batch.max_lanes)
  end

(* Share of sites outside the mid range 0.05 < P_sens < 0.95. *)
let add_saturation (results : Epp.Epp_engine.site_result list) =
  let n = List.length results in
  let sat =
    List.length
      (List.filter
         (fun (r : Epp.Epp_engine.site_result) -> r.p_sensitized <= 0.05 || r.p_sensitized >= 0.95)
         results)
  in
  add_ratio "epp.saturated_fraction" (float_of_int sat) (float_of_int n)

let add_patched t =
  add_ratio "analysis.patched_ratio" (t.counter "analysis.incremental.patched")
    (t.counter "analysis.incremental.patched" +. t.counter "analysis.incremental.rebuilt")

(* One back-to-back pair of the same operation, [slow] against [fast], in
   percent; pairs rather than whole-run medians, so host drift cancels. *)
let add_overhead name ~slow ~fast = add_ratio name (100.0 *. (slow -. fast)) fast

(* The random-simulation time of each site of a %Dif comparison, and its
   ratio to the traced queries' EPP time per site. *)
let add_sim (d : Checks.dif) ~epp_s_per_site =
  List.iter
    (fun s ->
      add "sim.s_per_site" s;
      add_ratio "sim.speedup_vs_epp" s epp_s_per_site)
    d.sim_s

(* The last traced operation as a Chrome trace-event file. *)
let write_trace ~dir workload =
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  Obs.Trace.to_file !last_tracer (Filename.concat dir (workload ^ "-trace.json"))

(* Correctness predicates and the %Dif accuracy figure.  The workloads run
   them outside the timed region and count each in attempted/failed. *)

let bits = Int64.bits_of_float

let same_result (a : Epp.Epp_engine.site_result) (b : Epp.Epp_engine.site_result) =
  a.site = b.site
  && bits a.p_sensitized = bits b.p_sensitized
  && a.cone_size = b.cone_size
  && a.reached_outputs = b.reached_outputs
  && List.equal
       (fun (o1, p1) (o2, p2) -> o1 = o2 && bits p1 = bits p2)
       a.per_observation b.per_observation

(* Every float bit-identical to the first; false for an empty list. *)
let all_same = function
  | [] -> false
  | x :: rest -> List.for_all (fun y -> bits y = bits x) rest

(* A seeded sample of 64 sites of a sweep's results, recomputed with the
   boxed reference engine: true when every one matches bit for bit. *)
let matches_reference ~seed engine results =
  let results = Array.of_list results in
  let n = Array.length results in
  let sites = Rng.sample_without_replacement (Rng.create ~seed) ~count:(min 64 n) ~universe:n in
  Array.for_all (fun s -> same_result results.(s) (Epp.Epp_engine.analyze_site engine s)) sites

(* An incremental edit's results against Transform.triplicate of the
   unedited circuit followed by a cold Ser_estimator sweep: same node
   names, results and total FIT, bit for bit. *)
let matches_cold_triplicate circuit ~target (e : Pipeline.edit) =
  let edited = Netlist.Transform.triplicate circuit ~nodes:[ target ] in
  let cold = Epp.Ser_estimator.analyze_all ~domains:1 (Epp.Epp_engine.create edited) in
  let n = Netlist.Circuit.node_count edited in
  n = Netlist.Circuit.node_count e.edited
  && List.for_all
       (fun v -> Netlist.Circuit.node_name edited v = Netlist.Circuit.node_name e.edited v)
       (List.init n Fun.id)
  && List.equal same_result cold (Epp.Supervisor.results e.outcome)
  && bits (Epp.Ser_estimator.of_site_results edited cold).total_fit = bits e.edit_report.total_fit

(* --- %Dif against random simulation -------------------------------------------- *)

(* The paper's Table-2 %Dif on mid-range sites (0.05 < P_sens < 0.95) of
   [circuit]: up to [dif_sites] of them, each simulated with [dif_vectors]
   random vectors.  Sites and vectors are drawn with fixed seeds, so the figure
   moves only with the program's answers.  Flip-flop outputs are driven at
   their fixpoint signal probability, primary inputs at 0.5.  Returns the
   %Dif, the sites compared and the seconds the simulation spent on each. *)
type dif = { dif_pct : float; sites : int; sim_s : float list }

let dif_seed = 2005
let dif_sites = 32
let dif_vectors = 1024

let dif circuit =
  let engine = Epp.Epp_engine.create circuit in
  let n = Netlist.Circuit.node_count circuit in
  let candidates =
    Rng.sample_without_replacement (Rng.create ~seed:dif_seed)
      ~count:(min n (8 * dif_sites)) ~universe:n
  in
  Array.sort compare candidates;
  let mids =
    Array.to_list (Epp.Ser_estimator.analyze_site_array ~domains:1 engine candidates)
    |> List.filter (fun (r : Epp.Epp_engine.site_result) ->
           r.p_sensitized > 0.05 && r.p_sensitized < 0.95)
    |> List.filteri (fun i _ -> i < dif_sites)
  in
  let sp = (Epp.Epp_engine.signal_probabilities engine).values in
  let sim =
    Fault_sim.Epp_sim.create
      ~config:
        {
          Fault_sim.Epp_sim.vectors = dif_vectors;
          input_sp = (fun v -> if Netlist.Circuit.is_ff circuit v then sp.(v) else 0.5);
        }
      circuit
  in
  let rng = Rng.create ~seed:(dif_seed + 1) in
  let timed =
    List.map
      (fun (r : Epp.Epp_engine.site_result) ->
        let s, dt = Measure.time (fun () -> Fault_sim.Epp_sim.estimate_site sim ~rng r.site) in
        ({ Epp.Accuracy.site = r.site; epp = r.p_sensitized; sim = s.p_sensitized }, dt))
      mids
  in
  let pairs = List.map fst timed in
  {
    dif_pct = (Epp.Accuracy.summarize pairs).dif_percent;
    sites = List.length pairs;
    sim_s = List.map snd timed;
  }

(* serd-session: one closed-loop client calling Service.Server.handle_line
   in-process, with a live Obs.Metrics registry installed the way
   bin/serd.ml installs it and every sweep on one worker domain.  Each
   round serves the session's circuit on a fresh server: a cold analyze
   carrying the bench text, then steps of (analyze by fingerprint, tmr edit
   by fingerprint) with the edits chained, so engine-cache reads sit beside
   incremental-edit writes. *)

open Measure

let config = { Service.Server.default_config with domains = Some 1 }
let steps = 3
let top_k = 10
let serd_name = "<request>" (* the circuit name serd gives a bench payload *)

type kind = Cold | Warm | Edit

type request = {
  id : string;
  kind : kind;
  json : string -> Obs.Json.t;  (* the request naming a fingerprint *)
}

type circuit = {
  input : Inputs.text;
  nodes : int;
  requests : request list;
  targets : string array;
}

let prepare ~seed (input : Inputs.text) =
  let c = Bench_format.Parser.parse_string ~name:serd_name input.source in
  let gates =
    List.init (Netlist.Circuit.node_count c) Fun.id
    |> List.filter (Netlist.Circuit.is_gate c)
    |> Array.of_list
  in
  let targets =
    Rng.sample_without_replacement (Rng.create ~seed) ~count:steps ~universe:(Array.length gates)
    |> Array.map (fun i -> Netlist.Circuit.node_name c gates.(i))
  in
  let request kind tag op circuit extra =
    let id = tag in
    let json fp =
      Obs.Json.Obj
        ([ ("id", Obs.Json.String id); ("op", Obs.Json.String op); ("circuit", circuit fp) ]
        @ extra
        @ [ ("top_k", Obs.Json.int top_k) ])
    in
    { id; kind; json }
  in
  let payload format source =
    Obs.Json.Obj [ ("format", Obs.Json.String format); ("source", Obs.Json.String source) ]
  in
  let by_fingerprint fp = payload "fingerprint" fp in
  let step j =
    [
      request Warm (Printf.sprintf "w%d" j) "analyze" by_fingerprint [];
      request Edit (Printf.sprintf "e%d" j) "edit" by_fingerprint
        [
          ( "edit",
            Obs.Json.Obj
              [ ("kind", Obs.Json.String "tmr"); ("target", Obs.Json.String targets.(j)) ] );
        ];
    ]
  in
  {
    input;
    nodes = Netlist.Circuit.node_count c;
    requests =
      request Cold "cold" "analyze" (fun _ -> payload "bench" input.source) []
      :: List.concat (List.init steps step);
    targets;
  }

(* --- replies ------------------------------------------------------------------ *)

let member path j = List.fold_left (fun acc k -> Option.bind acc (Obs.Json.member k)) (Some j) path
let str path j = Option.bind (member path j) Obs.Json.to_string_value

let num path j =
  match Option.bind (member path j) Obs.Json.to_number with Some x -> x | None -> Float.nan

(* What the client keeps per circuit while it walks the request chain. *)
type chain = {
  mutable base : string;  (* fingerprint of the cold reply *)
  mutable prev : string;  (* fingerprint the next edit names *)
  mutable cold_summary : Obs.Json.t option;
}

let new_chain () = { base = ""; prev = ""; cold_summary = None }

(* One reply against what its request expects: status, cache field and
   fingerprint chain. *)
let reply_ok ~nodes st kind reply =
  let total = num [ "stats"; "total" ] reply in
  let common =
    str [ "status" ] reply = Some "ok"
    && num [ "summary"; "sites" ] reply = total
    && num [ "stats"; "quarantined" ] reply = 0.0
    && str [ "fingerprint" ] reply <> None
  in
  match kind with
  | Cold -> common && total = float_of_int nodes && str [ "cache" ] reply = Some "miss"
  | Warm ->
    common
    && str [ "cache" ] reply = Some "hit"
    && str [ "fingerprint" ] reply = Some st.base
    && st.cold_summary <> None
    && member [ "summary" ] reply = st.cold_summary
  | Edit ->
    common
    && str [ "base_fingerprint" ] reply = Some st.prev
    && str [ "fingerprint" ] reply <> Some st.prev
    && num [ "incremental"; "dirty_sites" ] reply +. num [ "incremental"; "clean_reused" ] reply
       = total

(* Advance the chain past an accepted reply. *)
let advance st kind reply =
  let fp = Option.value ~default:"" (str [ "fingerprint" ] reply) in
  match kind with
  | Cold ->
    st.base <- fp;
    st.prev <- fp;
    st.cold_summary <- member [ "summary" ] reply
  | Warm -> ()
  | Edit -> st.prev <- fp

(* The summary and top list serd replies with, computed from results. *)
let expected_reply circuit (results : Epp.Epp_engine.site_result list) =
  let count = List.length results in
  let sum, maxp =
    List.fold_left
      (fun (s, m) (r : Epp.Epp_engine.site_result) ->
        (s +. r.p_sensitized, Float.max m r.p_sensitized))
      (0.0, 0.0) results
  in
  let top =
    List.sort
      (fun (a : Epp.Epp_engine.site_result) b ->
        compare (b.p_sensitized, a.site) (a.p_sensitized, b.site))
      results
    |> List.filteri (fun i _ -> i < top_k)
    |> List.map (fun (r : Epp.Epp_engine.site_result) ->
           Obs.Json.Obj
             [
               ("site", Obs.Json.int r.site);
               ("name", Obs.Json.String (Netlist.Circuit.node_name circuit r.site));
               ("p_sensitized", Obs.Json.Number r.p_sensitized);
             ])
  in
  ( Obs.Json.Obj
      [
        ("sites", Obs.Json.int count);
        ("mean_p_sensitized", Obs.Json.Number (sum /. float_of_int count));
        ("max_p_sensitized", Obs.Json.Number maxp);
      ],
    Obs.Json.List top )

let reply_matches circuit results reply =
  let summary, top = expected_reply circuit results in
  member [ "summary" ] reply = Some summary && member [ "top" ] reply = Some top

(* --- the session ------------------------------------------------------------------ *)

type state = {
  circuit : circuit;
  setups : samples;
  colds : samples;
  warms : samples;
  edits : samples;
  mutable first_cold : Obs.Json.t option;  (* for the repeat check *)
}

type pass = {
  seconds : float;  (* the requests' summed latency *)
  replies : (request * Obs.Json.t) list;
  server : Service.Server.t;
  base : string;  (* the cold reply's fingerprint *)
}

(* Serve the circuit's requests on a fresh server, checking every reply.
   [around kind f] wraps each request (tracing); [on_reply request line
   reply seconds] sees every reply. *)
let serve st ?(around = fun _ f -> f ()) ~on_reply () =
  let sc = st.circuit in
  let server = Service.Server.create config in
  let chain = new_chain () in
  let replies =
    List.map
      (fun r ->
        let fp = match r.kind with Cold -> "" | Warm -> chain.base | Edit -> chain.prev in
        let line = Obs.Json.to_string (r.json fp) in
        let reply, dt =
          op (fun () ->
              around r.kind (fun () ->
                  match Service.Server.handle_line server line with
                  | `Reply j | `Shutdown j ->
                    let encode () = ignore (Obs.Json.to_string j) in
                    Pipeline.span (Obs.Hooks.tracer ()) "encode" encode;
                    j))
        in
        check (Printf.sprintf "serd reply %s as expected" r.id)
          (reply_ok ~nodes:sc.nodes chain r.kind reply);
        advance chain r.kind reply;
        on_reply r line reply dt;
        ((r, reply), dt))
      sc.requests
  in
  let cold = snd (fst (List.hd replies)) in
  (match st.first_cold with
  | None -> st.first_cold <- Some cold
  | Some first ->
    check "cold reply identical across repeats"
      (member [ "summary" ] first = member [ "summary" ] cold
      && member [ "top" ] first = member [ "top" ] cold));
  {
    seconds = List.fold_left (fun a (_, dt) -> a +. dt) 0.0 replies;
    replies = List.map fst replies;
    server;
    base = chain.base;
  }

let reply_of kind p = snd (List.find (fun (r, _) -> r.kind = kind) p.replies)

(* A pass's replies against the benchmark's own computation: the cold reply
   against a cold Ser_estimator sweep (and a 64-site sample of that against
   the boxed reference), the first edit reply against Transform.triplicate
   followed by a cold sweep. *)
let check_against_cold ~seed sc p =
  let (c : Pipeline.cold) = Pipeline.cold Obs.Trace.null { sc.input with name = serd_name } in
  let circuit = Epp.Epp_engine.circuit c.engine in
  let cold = reply_of Cold p and edit = reply_of Edit p in
  check "cold reply matches a cold Ser_estimator sweep, fingerprint included"
    (reply_matches circuit c.results cold
    && str [ "fingerprint" ] cold = Some (Report.Checkpoint.fingerprint c.engine));
  check "64-site sample bit-identical to Epp_engine.analyze_site"
    (Checks.matches_reference ~seed c.engine c.results);
  let node = Option.get (Netlist.Circuit.find_opt circuit sc.targets.(0)) in
  let edited = Netlist.Transform.triplicate circuit ~nodes:[ node ] in
  let engine = Epp.Epp_engine.create edited in
  check "first edit reply matches Transform.triplicate + cold Ser_estimator sweep"
    (reply_matches edited (Epp.Ser_estimator.analyze_all ~domains:1 engine) edit
    && str [ "fingerprint" ] edit = Some (Report.Checkpoint.fingerprint engine))

let record_kind st (r : request) dt =
  match r.kind with
  | Cold -> record st.colds dt
  | Warm -> record st.warms dt
  | Edit -> record st.edits dt

(* The program's set-up: Server.create and the set-up of the circuit.
   Returns the engine. *)
let setup st =
  let engine, dt =
    op (fun () ->
        ignore (Service.Server.create config);
        Pipeline.setup Obs.Trace.null st.circuit.input)
  in
  record st.setups dt;
  engine

(* Client-side decode of a request line, as serd's handle_line decodes it. *)
let decode line =
  match Obs.Json.parse_with_limits Obs.Json.default_limits line with
  | Ok j -> Result.is_ok (Service.Protocol.of_json j)
  | Error _ -> false

let with_null_metrics f =
  let prev = Obs.Hooks.metrics () in
  Obs.Hooks.set_metrics Obs.Metrics.null;
  Fun.protect ~finally:(fun () -> Obs.Hooks.set_metrics prev) f

(* A traced round: the session untraced and traced, the order alternating
   between rounds, then warm requests with the live registry against null
   hooks, and sweeps of the set-up engine forced through the batch engine
   and on 1 and 2 domains. *)
let traced_round st i engine =
  let both a b = back_to_back ~a_first:(i mod 2 = 0) a b in
  let sc = st.circuit in
  let on_reply (r : request) line reply _ =
    let ok, dt = time (fun () -> decode line) in
    check "request line decodes" ok;
    Layers.add "serd.decode_s" dt;
    if r.kind = Edit then
      Layers.add "edit.dirty_fraction" (num [ "incremental"; "dirty_fraction" ] reply)
  in
  let registry = Obs.Hooks.metrics () in
  let around kind f =
    let reply, t = Layers.traced ~registry (fun tracer -> Pipeline.span tracer "request" f) in
    Layers.add "serd.encode_s" (Spans.total "encode" t.spans);
    Layers.add "serd.sweep_s" (Spans.total "supervisor.sweep" t.spans);
    (match kind with
    | Cold ->
      Layers.add "serd.engine_build_s" (Spans.total "epp.create" t.spans);
      Layers.add_query t ~bytes:(String.length sc.input.source) ~sites:sc.nodes
    | Warm -> ()
    | Edit ->
      Layers.add "edit.sweep_s" (Spans.total "supervisor.sweep" t.spans);
      Layers.add_patched t);
    reply
  in
  let plain, traced =
    both
      (fun () -> serve st ~on_reply:(fun _ _ _ _ -> ()) ())
      (fun () -> serve st ~around ~on_reply ())
  in
  Layers.add_overhead "trace.overhead_pct" ~slow:traced.seconds ~fast:plain.seconds;
  let analyzes = List.filter (fun (r, _) -> r.kind <> Edit) traced.replies in
  let hits = List.filter (fun (_, j) -> str [ "cache" ] j = Some "hit") analyzes in
  Layers.add_ratio "serd.cache_hit_ratio"
    (float_of_int (List.length hits))
    (float_of_int (List.length analyzes));
  Layers.add "serd.sites_swept_per_req"
    (Stats.mean
       (List.map
          (fun (r, j) ->
            if r.kind = Edit then num [ "incremental"; "dirty_sites" ] j
            else num [ "stats"; "total" ] j -. num [ "stats"; "resumed" ] j)
          traced.replies));
  let warm = List.find (fun r -> r.kind = Warm) sc.requests in
  let line = Obs.Json.to_string (warm.json plain.base) in
  let once () = snd (op (fun () -> Service.Server.handle_line plain.server line)) in
  for _ = 1 to steps do
    let live, null = both once (fun () -> with_null_metrics once) in
    Layers.add_overhead "obs.live_overhead_pct" ~slow:live ~fast:null
  done;
  Layers.add "epp.batch_forced_s" (snd (op (fun () -> Epp.Epp_batch.analyze_all engine)));
  let sweep domains () = op (fun () -> Epp.Ser_estimator.analyze_all ~domains engine) in
  let (results, one), (_, two) = both (sweep 1) (sweep 2) in
  Layers.add_ratio "parallel.speedup_2d" one two;
  Layers.add_saturation results

let run ~seed ~seconds ~trace ~accuracy input =
  let st =
    {
      circuit = prepare ~seed input;
      setups = ref [];
      colds = ref [];
      warms = ref [];
      edits = ref [];
      first_cold = None;
    }
  in
  Obs.Hooks.set_metrics (Obs.Metrics.create ());
  ignore (setup st);
  let peak =
    measure_loop ~min_rounds:(if trace then 2 else 3) ~seconds (fun i ->
        Gc.full_major ();
        if i = 0 then
          check_against_cold ~seed st.circuit (serve st ~on_reply:(fun _ _ _ _ -> ()) ())
        else
          let engine = setup st in
          if trace then traced_round st i engine
          else ignore (serve st ~on_reply:(fun r _ _ dt -> record_kind st r dt) ()))
  in
  Obs.Hooks.reset ();
  let dif = Checks.dif accuracy in
  check "%Dif compared some mid-range sites" (dif.sites > 0);
  if trace then begin
    Layers.add_sim dif
      ~epp_s_per_site:(Stats.median (Layers.values "epp.s") /. float_of_int st.circuit.nodes);
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

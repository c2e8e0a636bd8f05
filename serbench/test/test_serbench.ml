(* Tests of the benchmark's own machinery: order statistics, span
   self-time accounting, and the correctness checks, which must reject a
   perturbed result. *)

open Serbench

let close = Alcotest.float 1e-12

(* --- quantiles and tails --------------------------------------------------------- *)

let test_quantile () =
  let xs = [ 4.0; 1.0; 3.0; 2.0 ] in
  Alcotest.check close "min" 1.0 (Stats.quantile 0.0 xs);
  Alcotest.check close "q1" 1.75 (Stats.quantile 0.25 xs);
  Alcotest.check close "median" 2.5 (Stats.median xs);
  Alcotest.check close "q3" 3.25 (Stats.quantile 0.75 xs);
  Alcotest.check close "max" 4.0 (Stats.quantile 1.0 xs);
  Alcotest.check close "odd median" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check close "single" 7.0 (Stats.median [ 7.0 ]);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.median []))

let test_tail () =
  let upto n = List.init n (fun i -> float_of_int (i + 1)) in
  let tail = Alcotest.(option (triple string close int)) in
  Alcotest.check tail "too few" None (Stats.tail (upto 19));
  Alcotest.check tail "p50 of 20" (Some ("p50", 10.0, 10)) (Stats.tail (upto 20));
  Alcotest.check tail "p90 of 100" (Some ("p90", 90.0, 10)) (Stats.tail (upto 100));
  Alcotest.check tail "p90 of 999" (Some ("p90", 900.0, 99)) (Stats.tail (upto 999));
  Alcotest.check tail "p99 of 1000" (Some ("p99", 990.0, 10)) (Stats.tail (upto 1000));
  Alcotest.check tail "p99.9 of 10000" (Some ("p99.9", 9990.0, 10)) (Stats.tail (upto 10000))

(* --- span self time -------------------------------------------------------------- *)

let ev ?(tid = 0) ph cat name ts = { Obs.Trace.name; cat; ph; ts; tid; args = [] }

(* sweep [0, 100] us holding parse [10, 40] and epp.create [50, 80], which
   holds sp.sequential [55, 65]; an instant and another domain's span on
   the side. *)
let events =
  [
    ev 'B' Spans.cat "sweep" 0.0;
    ev 'B' Spans.cat "parse" 10.0;
    ev 'E' Spans.cat "parse" 40.0;
    ev 'i' Spans.cat "mark" 45.0;
    ev 'B' "epp" "epp.create" 50.0;
    ev ~tid:1 'B' "parallel" "parallel.worker" 52.0;
    ev 'B' "sp" "sp.sequential" 55.0;
    ev 'E' "sp" "sp.sequential" 65.0;
    ev ~tid:1 'E' "parallel" "parallel.worker" 70.0;
    ev 'E' "epp" "epp.create" 80.0;
    ev 'E' Spans.cat "sweep" 100.0;
  ]

let test_self_time () =
  let spans = Spans.closed events in
  let find n = List.find (fun (s : Spans.span) -> s.name = n) spans in
  let us = Alcotest.float 1e-9 in
  Alcotest.check us "root duration" 100e-6 (find "sweep").dur;
  Alcotest.check us "root self: minus both children" 40e-6 (find "sweep").self;
  Alcotest.check us "leaf self is its duration" 30e-6 (find "parse").self;
  Alcotest.check us "middle self: minus its child" 20e-6 (find "epp.create").self;
  Alcotest.check us "other domain's span nests on its own" 18e-6 (find "parallel.worker").self;
  Alcotest.(check int) "depth" 1 (find "epp.create").depth;
  let by_layer = Spans.self_by_layer spans in
  Alcotest.check us "parse layer" 30e-6 (List.assoc "parse" by_layer);
  Alcotest.check us "epp layer: epp.create self + worker" 38e-6 (List.assoc "epp" by_layer);
  Alcotest.check us "sp layer" 10e-6 (List.assoc "sp" by_layer);
  (* roots: sweep (100 us, 40 us uncovered) and the worker (18 us, a layer) *)
  Alcotest.check (Alcotest.float 1e-9) "coverage" (1.0 -. (40.0 /. 118.0)) (Spans.coverage spans);
  Alcotest.check us "total by name" 30e-6 (Spans.total "parse" spans)

let test_unbalanced () =
  let raises evs =
    match Spans.closed evs with _ -> false | exception Failure _ -> true
  in
  Alcotest.(check bool) "crossed ends" true
    (raises [ ev 'B' Spans.cat "a" 0.0; ev 'B' Spans.cat "b" 1.0; ev 'E' Spans.cat "a" 2.0 ]);
  Alcotest.(check bool) "left open" true (raises [ ev 'B' Spans.cat "a" 0.0 ])

(* --- the checks reject perturbed results ---------------------------------------- *)

let bump x = Float.succ x

let s27 () = Circuit_gen.Embedded.s27 ()

let test_perturbed_results () =
  let engine = Epp.Epp_engine.create (s27 ()) in
  let results = Epp.Ser_estimator.analyze_all ~domains:1 engine in
  Alcotest.(check bool) "reference sample accepts the sweep" true
    (Checks.matches_reference ~seed:1 engine results);
  let perturbed =
    List.map
      (fun (r : Epp.Epp_engine.site_result) -> { r with p_sensitized = bump r.p_sensitized })
      results
  in
  Alcotest.(check bool) "reference sample rejects a one-ulp change" false
    (Checks.matches_reference ~seed:1 engine perturbed);
  let fit = (Epp.Ser_estimator.of_site_results (s27 ()) results).total_fit in
  Alcotest.(check bool) "identical FITs" true (Checks.all_same [ fit; fit; fit ]);
  Alcotest.(check bool) "a one-ulp FIT change" false (Checks.all_same [ fit; bump fit; fit ]);
  Alcotest.(check bool) "no FITs" false (Checks.all_same [])

let test_perturbed_edit () =
  let input = { Inputs.name = "s27"; source = Circuit_gen.Embedded.s27_source } in
  let (c : Pipeline.cold) = Pipeline.cold Obs.Trace.null input in
  let outcome, report = Pipeline.warm Obs.Trace.null c.engine in
  let target = Pipeline.top_gate report in
  let circuit = Epp.Epp_engine.circuit c.engine in
  let e = Pipeline.edit Obs.Trace.null c.engine outcome ~target in
  Alcotest.(check bool) "edit matches triplicate + cold sweep" true
    (Checks.matches_cold_triplicate circuit ~target e);
  let report = { e.edit_report with total_fit = bump e.edit_report.total_fit } in
  Alcotest.(check bool) "a perturbed edit FIT" false
    (Checks.matches_cold_triplicate circuit ~target { e with edit_report = report })

let json_replace path v j =
  let rec go path j =
    match (path, j) with
    | k :: rest, Obs.Json.Obj kvs ->
      let at (k', x) =
        if k' <> k then (k', x) else if rest = [] then (k', v) else (k', go rest x)
      in
      Obs.Json.Obj (List.map at kvs)
    | _ -> j
  in
  go path j

let test_perturbed_replies () =
  let sc =
    Session.prepare ~seed:1 { Inputs.name = "s27"; source = Circuit_gen.Embedded.s27_source }
  in
  let server = Service.Server.create Session.config in
  let chain = Session.new_chain () in
  let ok = Alcotest.(check bool) in
  List.iter
    (fun (r : Session.request) ->
      let fp = match r.kind with Cold -> "" | Warm -> chain.base | Edit -> chain.prev in
      let reply =
        match Service.Server.handle_line server (Obs.Json.to_string (r.json fp)) with
        | `Reply j | `Shutdown j -> j
      in
      let accepts j = Session.reply_ok ~nodes:sc.nodes chain r.kind j in
      let rejects what path v =
        ok (r.id ^ " with " ^ what) false (accepts (json_replace path v reply))
      in
      ok (r.id ^ " accepted") true (accepts reply);
      rejects "an error status" [ "status" ] (Obs.Json.String "error");
      rejects "a quarantine" [ "stats"; "quarantined" ] (Obs.Json.int 1);
      (match r.kind with
      | Cold -> rejects "a cache hit" [ "cache" ] (Obs.Json.String "hit")
      | Warm ->
        rejects "a cache miss" [ "cache" ] (Obs.Json.String "miss");
        rejects "another fingerprint" [ "fingerprint" ] (Obs.Json.String "x");
        rejects "another summary" [ "summary"; "mean_p_sensitized" ] (Obs.Json.Number 0.5)
      | Edit ->
        rejects "another base fingerprint" [ "base_fingerprint" ] (Obs.Json.String "x");
        rejects "a site missing" [ "incremental"; "dirty_sites" ]
          (Obs.Json.Number (Session.num [ "incremental"; "dirty_sites" ] reply -. 1.0)));
      Session.advance chain r.kind reply)
    sc.requests

let () =
  Alcotest.run "serbench"
    [
      ( "stats",
        [
          Alcotest.test_case "quantile" `Quick test_quantile;
          Alcotest.test_case "tail" `Quick test_tail;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "unbalanced" `Quick test_unbalanced;
        ] );
      ( "checks",
        [
          Alcotest.test_case "perturbed results" `Quick test_perturbed_results;
          Alcotest.test_case "perturbed edit" `Quick test_perturbed_edit;
          Alcotest.test_case "perturbed serd replies" `Quick test_perturbed_replies;
        ] );
    ]

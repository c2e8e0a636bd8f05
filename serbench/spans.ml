(* Span self-time accounting over an Obs.Trace event list.

   A span's self time is its duration minus the part of that interval its
   child spans cover.  Every span maps to a layer, except the benchmark's
   operation spans (the roots); a root's self time is the part of the
   operation no layer accounts for, so the layers' self times cover
   1 - root self / root duration of the operation. *)

type span = {
  name : string;
  cat : string;
  dur : float;  (* seconds *)
  self : float;  (* seconds *)
  depth : int;  (* 0 for a root *)
}

(* The benchmark's own spans carry this category. *)
let cat = "serbench"

(* Closed spans in the order they closed.  Spans nest per domain (tid);
   an end event that does not close the innermost open span of its domain
   raises [Failure]. *)
let closed (events : Obs.Trace.event list) =
  let stacks = Hashtbl.create 4 and out = ref [] in
  List.iter
    (fun (e : Obs.Trace.event) ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks e.tid) in
      match e.ph with
      | 'B' -> Hashtbl.replace stacks e.tid ((e.name, e.cat, e.ts, ref 0.0) :: stack)
      | 'E' -> (
        match stack with
        | (name, cat, t0, children) :: rest when name = e.name ->
          let dur = (e.ts -. t0) /. 1e6 in
          (match rest with
          | (_, _, _, parent_children) :: _ -> parent_children := !parent_children +. dur
          | [] -> ());
          Hashtbl.replace stacks e.tid rest;
          out := { name; cat; dur; self = dur -. !children; depth = List.length rest } :: !out
        | _ -> failwith ("unbalanced span " ^ e.name))
      | _ -> ())
    events;
  Hashtbl.iter
    (fun _ s -> if s <> [] then failwith "span left open")
    stacks;
  List.rev !out

(* The layer a span's self time belongs to; None for an operation span. *)
let layer s =
  if s.cat = cat then
    match s.name with
    | "parse" | "analysis" | "sp" | "epp" | "compose" | "emit" -> Some s.name
    | "rebase" | "plan" | "edit_sweep" -> Some "incremental"
    | "encode" -> Some "service"
    | _ -> None
  else
    match (s.cat, s.name) with
    | _, "epp.levelize" -> Some "analysis"
    | ("epp" | "supervisor" | "parallel"), _ -> Some "epp"
    | "sp", _ -> Some "sp"
    | ("serd" | "checkpoint"), _ -> Some "service"
    | _ -> Some "other"

let layers =
  [ "parse"; "analysis"; "sp"; "epp"; "incremental"; "compose"; "emit"; "service"; "other" ]

(* Self seconds per layer over [spans], every layer of [layers] present. *)
let self_by_layer spans =
  List.map
    (fun l ->
      ( l,
        List.fold_left
          (fun acc s -> if layer s = Some l then acc +. s.self else acc)
          0.0 spans ))
    layers

(* Total duration of the spans named [name] (of any category). *)
let total name spans =
  List.fold_left (fun acc s -> if s.name = name then acc +. s.dur else acc) 0.0 spans

(* Share of the root spans' time that layer spans cover. *)
let coverage spans =
  let roots = List.filter (fun s -> s.depth = 0) spans in
  let dur = List.fold_left (fun a s -> a +. s.dur) 0.0 roots in
  let uncovered =
    List.fold_left (fun a s -> if layer s = None then a +. s.self else a) 0.0 spans
  in
  if dur <= 0.0 then 0.0 else 1.0 -. (uncovered /. dur)

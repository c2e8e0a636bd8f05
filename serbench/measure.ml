(* Timing, outcome accounting, metrics and result output. *)

let now = Obs.Clock.monotonic_seconds

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- outcome accounting ---------------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0

let check name ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "serbench: check failed: %s\n%!" name
  end

exception Stop

(* One timed operation.  It counts as attempted; one that raises counts as
   failed and ends the measurement loop. *)
let op f =
  incr attempted;
  try time f
  with e ->
    incr failed;
    Printf.eprintf "serbench: operation failed: %s\n%!" (Printexc.to_string e);
    raise Stop

(* [a ()] and [b ()] back to back, [a] first when [a_first]. *)
let back_to_back ~a_first a b =
  if a_first then
    let x = a () in
    (x, b ())
  else
    let y = b () in
    (a (), y)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Run [round i] for i = 0, 1, ... until [seconds] have passed.  Round 0 is
   the warm-up: it runs the same operations and checks as the others, but
   the caller does not record its times.  A later round starts only if, at
   the mean round time so far, it ends in time; rounds 0 to [min_rounds]
   always run.  Returns the major-heap high-water mark in MB after the
   warm-up: later rounds repeat the same work, so that figure does not
   depend on how many rounds fit in the time. *)
let measure_loop ?(min_rounds = 3) ~seconds round =
  let t0 = now () and peak = ref 0.0 in
  let rec go i =
    round i;
    if i = 0 then peak := peak_heap_mb ();
    let elapsed = now () -. t0 in
    if i < min_rounds || elapsed *. float_of_int (i + 2) /. float_of_int (i + 1) <= seconds then
      go (i + 1)
  in
  (try go 0 with Stop -> ());
  !peak

(* Samples of one timed operation kind, newest first. *)
type samples = float list ref

let record (s : samples) x = s := x :: !s

(* --- metrics ------------------------------------------------------------------------- *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : int;
  spread : (float * float) option;  (* a timing's q1 and q3 *)
  tail : (string * float * int) option;  (* label, value, samples beyond *)
}

let metric ?(samples = 1) name unit_ value =
  { name; value; unit_; samples; spread = None; tail = None }

(* The median of [xs], scaled to the metric's unit, with its quartiles and
   tail.  The samples themselves go to stderr. *)
let timing ?(scale = 1.0) name unit_ xs =
  let s x = scale *. x in
  Printf.eprintf "serbench: samples %s %s\n%!" name
    (String.concat " " (List.rev_map (fun x -> Printf.sprintf "%.6g" (s x)) xs));
  {
    name;
    value = s (Stats.median xs);
    unit_;
    samples = List.length xs;
    spread = Some (s (Stats.quantile 0.25 xs), s (Stats.quantile 0.75 xs));
    tail = Option.map (fun (l, v, k) -> (l, s v, k)) (Stats.tail xs);
  }

let print_metric m =
  Printf.printf "%-28s %14.6g %-6s n=%d%s%s\n" m.name m.value m.unit_ m.samples
    (match m.spread with
    | Some (q1, q3) -> Printf.sprintf "  q1 %.6g q3 %.6g" q1 q3
    | None -> "")
    (match m.tail with
    | Some (l, v, k) -> Printf.sprintf "  %s %.6g (%d beyond)" l v k
    | None -> "")

let result_json metrics =
  Obs.Json.Obj
    [
      ("correct", Obs.Json.Bool (!failed = 0));
      ("attempted", Obs.Json.int !attempted);
      ("failed", Obs.Json.int !failed);
      ( "metrics",
        Obs.Json.Obj
          (List.map
             (fun m ->
               ( m.name,
                 Obs.Json.Obj
                   [ ("value", Obs.Json.Number m.value); ("unit", Obs.Json.String m.unit_) ] ))
             metrics) );
    ]

let print_result metrics =
  List.iter print_metric metrics;
  print_string (Obs.Json.to_string (result_json metrics));
  print_newline ()

(* Workload inputs.  Every netlist the benchmark hands to the program is
   generated here as .bench text; the same workload seed gives the same
   texts.  The generator matches profile counts exactly, so the node, gate
   and flip-flop counts of a workload are pinned for every seed, and the
   text digest for the recorded seed (pins.json): a change to the generator
   shows up as a re-baseline, not as a silent change of workload. *)

module Ast = Bench_format.Ast

type text = { name : string; source : string }

let workloads = [ "dense-sweep"; "cone-local-sweep"; "serd-session" ]

(* A block's statements with every signal name prefixed, so that blocks
   can be concatenated into one netlist without name clashes. *)
let prefixed prefix (ast : Ast.t) =
  let p s = prefix ^ s in
  List.map
    (function
      | Ast.Input s -> Ast.Input (p s)
      | Ast.Output s -> Ast.Output (p s)
      | Ast.Dff { q; d } -> Ast.Dff { q = p q; d = p d }
      | Ast.Gate { output; kind; fanins } ->
        Ast.Gate { output = p output; kind; fanins = List.map p fanins })
    ast.Ast.statements

(* Disjoint blocks in one netlist, statements in the printer's canonical
   order (inputs, outputs, flip-flops, gates). *)
let modular ~name blocks =
  let rank = function
    | Ast.Input _ -> 0
    | Ast.Output _ -> 1
    | Ast.Dff _ -> 2
    | Ast.Gate _ -> 3
  in
  let statements =
    List.concat
      (List.mapi
         (fun b c -> prefixed (Printf.sprintf "b%d_" b) (Bench_format.Printer.ast_of_circuit c))
         blocks)
    |> List.stable_sort (fun a b -> compare (rank a) (rank b))
  in
  { name; source = Bench_format.Printer.ast_to_string { Ast.name; statements } }

let recorded_seed = 1

(* Generator seed of block [b] for workload seed [seed]. *)
let block_seed ~seed b = (seed * 10_000) + b + 1

(* dense-sweep: one s13207-profile sequential circuit.  Its netlist is the
   recorded seed's whatever --seed is: the cost of one generated circuit
   hangs on its own signal-probability fixpoint (19 to 1000 iterations over
   generator seeds 1-8, the latter 1.5 s of a 4 s sweep) and on the cone of
   its top-FIT gate (edits of 0.6 to 1.4 s), so a seed-drawn circuit would
   make the workload seed, not the program, set the figures. *)
let dense ~seed:_ =
  let c =
    Circuit_gen.Random_dag.generate ~seed:(block_seed ~seed:recorded_seed 0)
      Circuit_gen.Profiles.s13207
  in
  { name = "s13207p"; source = Bench_format.Printer.circuit_to_string c }

(* cone-local-sweep: 64 disjoint combinational blocks of 400 gates in one
   netlist, drawn from --seed.  Every cone stays inside its block, so the
   mean cone is far under the batch engine's density threshold; with no
   flip-flops there is no fixpoint, and the cost is a sum over 64
   independent blocks, which varies little between seeds. *)
let cone_local_blocks = 64

let cone_local ~seed =
  let blocks =
    List.init cone_local_blocks (fun b ->
        Circuit_gen.Random_dag.generate_profile ~seed:(block_seed ~seed b) ~name:"blk"
          ~inputs:32 ~outputs:24 ~ffs:0 ~gates:400 ())
  in
  modular ~name:"forest64" blocks

(* serd-session: one modular sequential circuit of eight s1196-profile
   blocks, the recorded seed's for the reason dense-sweep's is: a block
   whose fixpoint does not converge runs the fixpoint to its 1000-iteration
   cap, and whether one of eight does changes from seed to seed.  This one
   has such a block, so the session pays the cap on every cold analyze and
   edit.  --seed draws the edit targets. *)
let serd_blocks = 8

let serd ~seed:_ =
  let blocks =
    List.init serd_blocks (fun b ->
        Circuit_gen.Random_dag.generate ~seed:(block_seed ~seed:recorded_seed b)
          Circuit_gen.Profiles.s1196)
  in
  modular ~name:"s1196x8" blocks

let generate ~seed = function
  | "dense-sweep" -> dense ~seed
  | "cone-local-sweep" -> cone_local ~seed
  | "serd-session" -> serd ~seed
  | w -> invalid_arg ("unknown workload " ^ w)

(* --- pins ------------------------------------------------------------------- *)

type counts = { nodes : int; gates : int; ffs : int }
type pin = { counts : counts; recorded_seed : int; md5 : string }

let counts t =
  let c = Bench_format.Parser.parse_string ~name:t.name t.source in
  {
    nodes = Netlist.Circuit.node_count c;
    gates = Netlist.Circuit.gate_count c;
    ffs = Netlist.Circuit.ff_count c;
  }

let digest t = Digest.to_hex (Digest.string t.source)

let pin_of_workload w =
  let t = generate ~seed:recorded_seed w in
  { counts = counts t; recorded_seed; md5 = digest t }

let pin_json p =
  let i = Obs.Json.int in
  Obs.Json.Obj
    [
      ("nodes", i p.counts.nodes);
      ("gates", i p.counts.gates);
      ("ffs", i p.counts.ffs);
      ("recorded_seed", i p.recorded_seed);
      ("md5", Obs.Json.String p.md5);
    ]

let pin_of_json j =
  let int k =
    match Option.bind (Obs.Json.member k j) Obs.Json.to_number with
    | Some x -> int_of_float x
    | None -> failwith ("pin field " ^ k)
  in
  match Option.bind (Obs.Json.member "md5" j) Obs.Json.to_string_value with
  | None -> failwith "pin field md5"
  | Some md5 ->
    {
      counts = { nodes = int "nodes"; gates = int "gates"; ffs = int "ffs" };
      recorded_seed = int "recorded_seed";
      md5;
    }

let load_pins path =
  match Obs.Json.parse_file path with
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  | Ok j ->
    List.filter_map
      (fun w -> Option.map (fun p -> (w, pin_of_json p)) (Obs.Json.member w j))
      workloads

(* Problems of the text [t] generated at [seed] against its workload's pin:
   counts for every seed, the digest for the recorded seed only. *)
let pin_problems pin ~seed t =
  let c = counts t in
  let count_problem =
    if c = pin.counts then []
    else
      [
        Printf.sprintf "counts %d nodes, %d gates, %d FFs; pinned %d, %d, %d" c.nodes c.gates c.ffs
          pin.counts.nodes pin.counts.gates pin.counts.ffs;
      ]
  in
  let digest_problem =
    if seed <> pin.recorded_seed then []
    else
      let d = digest t in
      if d = pin.md5 then [] else [ Printf.sprintf "digest %s; pinned %s" d pin.md5 ]
  in
  count_problem @ digest_problem

(* Command-line entry point of the wall-clock benchmark.

     main.exe --workload bulk|online|deploy --seed N --seconds S
              --trace 0|1 [--root DIR]

   Builds the workload's fixtures, runs it, and prints one JSON object as
   the last line of standard output: whether every checked output was
   correct, the operations attempted and failed, and the metrics — the
   end-to-end ones with --trace 0, the per-layer ones with --trace 1. A
   traced run also writes its spans to
   [<root>/.perfbench/trace/<workload>-seed<N>.json]. [--root] is the
   checkout (default: the working directory). *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload bulk|online|deploy --seed N --seconds S \
     --trace 0|1 [--root DIR]";
  exit 2

let parse argv =
  let workload = ref None and seed = ref None in
  let seconds = ref None and trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := Some v;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      go rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := Some (v = "1");
      go rest
    | "--root" :: v :: rest ->
      Fixtures.root := v;
      go rest
    | arg :: _ ->
      Printf.eprintf "unknown or malformed argument %S\n" arg;
      usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t
    when List.mem w Spec.workloads && secs > 0.0 ->
    (w, s, secs, t)
  | _ -> usage ()

(* Exactly the catalogue's names for this mode, in catalogue order. *)
let select ~traced (o : Outcome.t) =
  let catalogue = if traced then Spec.per_layer else Spec.end_to_end in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name catalogue) then
        failwith ("metric not in the catalogue: " ^ name))
    o.Outcome.metrics;
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name o.Outcome.metrics with
      | Some v when Float.is_finite v -> (name, unit, v)
      | Some v -> failwith (Printf.sprintf "metric %s is not finite (%g)" name v)
      | None when traced -> (name, unit, 0.0)
      | None -> failwith ("end-to-end metric missing: " ^ name))
    catalogue

let write_trace ~workload ~seed =
  let dir = Filename.concat (Fixtures.state_dir ()) "trace" in
  Fixtures.mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d.json" workload seed) in
  Trace.write path
    ~meta:
      ([ ("workload", workload); ("seed", string_of_int seed) ]
      @ List.mapi
          (fun i s -> (Printf.sprintf "fixture_built_%d" i, s))
          !Fixtures.built);
  Printf.printf "trace: %s\n" path

let () =
  let workload, seed, seconds, traced = parse Sys.argv in
  if Filename.is_relative !Fixtures.root then
    Fixtures.root := Filename.concat (Sys.getcwd ()) !Fixtures.root;
  let run =
    match workload with
    | "bulk" -> Bulk.run
    | "online" -> Online.run
    | _ -> Deploy.run
  in
  Trace.reset ();
  let outcome = run ~seed ~seconds ~traced in
  let metrics = select ~traced outcome in
  if traced then write_trace ~workload ~seed;
  let metric (name, unit, v) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (outcome.Outcome.failed = 0)
    outcome.Outcome.attempted outcome.Outcome.failed
    (String.concat ", " (List.map metric metrics))

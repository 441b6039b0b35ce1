(* The benchmark's own tests: the output check must catch a perturbed
   output, the span recorder must compute self time, and BENCHMARK.json
   must list exactly the metrics the benchmark reports.

   Usage: test_perfbench.exe PATH/TO/BENCHMARK.json *)

open Perfbench
module Forest = Tb_model.Forest
module Json = Tb_util.Json
module Prng = Tb_util.Prng

let failures = ref 0

let expect name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let copy rows = Array.map Array.copy rows

let perturbed_outputs_are_caught () =
  let rng = Prng.create 42 in
  let forest = Forest.random ~num_trees:20 ~max_depth:5 ~num_features:6 rng in
  let rows =
    Array.init 64 (fun _ -> Array.init 6 (fun _ -> Prng.float rng 2.0 -. 1.0))
  in
  let expected = Forest.predict_batch_raw forest rows in
  let close = Check.float_reference forest rows in
  let exact = Check.Exact expected in
  let perturbed f =
    let out = copy expected in
    f out;
    out
  in
  expect "float: the reference itself passes"
    (Check.outputs_ok close (copy expected));
  expect "float: a deviation inside 1e-5 passes"
    (Check.outputs_ok close
       (perturbed (fun o -> o.(7).(0) <- o.(7).(0) +. 1e-7)));
  expect "float: a perturbed output fails"
    (not
       (Check.outputs_ok close
          (perturbed (fun o -> o.(7).(0) <- o.(7).(0) +. 1e-3))));
  expect "float: a NaN output fails"
    (not (Check.outputs_ok close (perturbed (fun o -> o.(0).(0) <- Float.nan))));
  expect "float: a missing row fails"
    (not (Check.outputs_ok close (Array.sub expected 0 63)));
  expect "exact: the reference itself passes"
    (Check.outputs_ok exact (copy expected));
  expect "exact: a one-ulp perturbation fails"
    (not
       (Check.outputs_ok exact
          (perturbed (fun o -> o.(11).(0) <- Float.succ o.(11).(0)))));
  expect "tier: the right tier with the right outputs passes"
    (Check.op_ok ~expected_tier:`Int16 ~tier:`Int16 exact (copy expected));
  expect "tier: a float fallback fails even with the right outputs"
    (not (Check.op_ok ~expected_tier:`Int16 ~tier:`Float exact (copy expected)))

let spans_compute_self_time () =
  Trace.reset ();
  Trace.enabled := true;
  Trace.span ~layer:false "root" (fun () ->
      Trace.span "outer" (fun () ->
          Unix.sleepf 0.02;
          Trace.span "inner" (fun () -> Unix.sleepf 0.03)));
  (try Trace.span "raises" (fun () -> failwith "boom") with Failure _ -> ());
  Trace.count "things" 2.0;
  Trace.enabled := false;
  ignore (Trace.span "untraced" (fun () -> 1));
  let inner = Trace.self_s "inner" and outer = Trace.self_s "outer" in
  let outer_total = Sample.sum (Trace.durations "outer") in
  expect "trace: inner self time is its duration" (inner >= 0.03 && inner < 0.5);
  expect "trace: outer self time excludes inner"
    (outer >= 0.02 && Float.abs (outer_total -. inner -. outer) < 1e-9);
  expect "trace: the root's self time is near zero" (Trace.self_s "root" < 0.01);
  expect "trace: layer time excludes root spans"
    (Float.abs
       (Trace.layer_self_s () -. (inner +. outer +. Trace.self_s "raises"))
    < 1e-9);
  expect "trace: a raising span is closed"
    (Sample.length (Trace.durations "raises") = 1);
  expect "trace: counters add up" (Trace.counter "things" = 2.0);
  expect "trace: nothing is recorded when disabled"
    (Sample.length (Trace.durations "untraced") = 0)

let catalogue_matches path =
  let doc = Json.of_string (In_channel.with_open_bin path In_channel.input_all) in
  let field key m = Json.to_str (Json.member key m) in
  let entries key = Json.to_list (Json.member key doc) in
  let metrics key =
    List.map (fun m -> (field "name" m, field "unit" m)) (entries key)
  in
  expect "catalogue: workloads"
    (List.map (field "name") (entries "workloads") = Spec.workloads);
  expect "catalogue: end-to-end metrics and units"
    (metrics "end_to_end" = Spec.end_to_end);
  expect "catalogue: per-layer metrics and units"
    (metrics "per_layer" = Spec.per_layer)

let () =
  perturbed_outputs_are_caught ();
  spans_compute_self_time ();
  (match Sys.argv with
  | [| _; path |] -> catalogue_matches path
  | _ -> expect "catalogue: BENCHMARK.json path given" false);
  if !failures > 0 then exit 1

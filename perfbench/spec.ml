(* The metric catalogue. BENCHMARK.json lists the same names (the
   benchmark's tests compare the two); every workload reports every
   end-to-end metric, and a traced run reports every per-layer metric,
   with 0 for a layer or predictor the workload does not exercise. *)

let bulk_predictors = [ "abalone"; "abalone-int16"; "letter"; "higgs" ]
let online_models = [ "airline"; "epsilon"; "higgs"; "year" ]

let deploy_keys =
  [ "abalone"; "airline"; "airline-ohe"; "covtype"; "epsilon"; "letter";
    "higgs"; "year"; "abalone-int16" ]

let xgboost_models = [ "abalone"; "letter"; "higgs"; "airline"; "epsilon"; "year" ]
let workloads = [ "bulk"; "online"; "deploy" ]

(* name, unit *)
let end_to_end =
  [
    ("setup_s", "s");
    ("rows_per_s", "1/s");
    ("speedup_vs_xgboost", "x");
    ("artifact_mb", "MB");
    ("peak_heap_mb", "MB");
  ]

let each prefix unit names = List.map (fun n -> (prefix ^ "." ^ n, unit)) names

let per_layer =
  [
    ("core.explore_s", "s");
    ("core.explore_candidates", "count");
    ("core.tune_resident_ms", "ms");
    ("core.simulate_ms", "ms");
    ("model.load_ms", "ms");
    ("model.profile_ms", "ms");
    ("analysis.certify_ms", "ms");
    ("analysis.validate_quant_ms", "ms");
    ("lir.lower_ms", "ms");
    ("lir.pack_ms", "ms");
    ("lir.encode_ms", "ms");
    ("lir.decode_ms", "ms");
  ]
  @ each "lir.artifact_kb" "KiB" deploy_keys
  @ each "lir.model_kb" "KiB" bulk_predictors
  @ each "vm.us_per_row" "us" bulk_predictors
  @ each "vm.steps_per_row" "count" bulk_predictors
  @ each "vm.predict_one_us_p50" "us" online_models
  @ [
      ("vm.instantiate_ms", "ms");
      ("vm.first_predict_ms", "ms");
      ("vm.alloc_words_per_row", "words");
      ("serve.lookup_us_p50", "us");
      ("serve.request_us_p99", "us");
      ("serve.hit_ratio", "ratio");
      ("serve.register_ms", "ms");
      ("serve.artifact_load_ms", "ms");
      ("serve.artifact_write_ms", "ms");
      ("serve.hydrations", "count");
      ("serve.compiles", "count");
      ("baselines.xgboost_compile_ms", "ms");
    ]
  @ each "baselines.xgboost_us_per_row" "us" xgboost_models
  @ [ ("trace.overhead_pct", "%"); ("trace.coverage", "ratio") ]

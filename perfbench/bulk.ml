(* bulk: offline batch scoring.

   Four predictors are built by the autotuner for the Intel target from
   their model's training split: abalone (float), abalone at int16,
   letter and higgs. The measured phase scores seeded 1024-row test
   batches round-robin, each tb batch interleaved with an xgboost-style
   (V15) batch on the same rows, the pair's order alternating so that
   drift in the host's speed hits both sides alike. *)

module Treebeard = Tb_core.Treebeard
module Explore = Tb_core.Explore
module Schedule = Tb_hir.Schedule
module Lower = Tb_lir.Lower
module Pack = Tb_lir.Pack
module Layout = Tb_lir.Layout
module Jit = Tb_vm.Jit
module Numeric = Tb_analysis.Numeric
module Validate = Tb_analysis.Validate
module Xgboost = Tb_baselines.Xgboost

let target = Tb_cpu.Config.intel_rocket_lake
let batch_rows = 1024
let pool_batches = 4
let min_rounds = 4

(* The CI quant smoke's setting, which certifies abalone today. *)
let int16 = `Quantized { Treebeard.bits = `I16; tolerance = 0.5 }

(* Spec labels name a model, or a model at int16. *)
let resolve_label label =
  if label = "abalone-int16" then ("abalone", int16, `Int16)
  else (label, `Float, `Float)

(* The quant block a pack of a certified lowering carries. *)
let quant_meta (cert : Numeric.certificate) ~resident_k =
  {
    Pack.resident_k;
    dev_bound = Array.copy cert.Numeric.dev_bound;
    tolerance = cert.Numeric.plan.Numeric.tolerance;
  }

type predictor = {
  label : string;
  model : Fixtures.model;
  precision : Treebeard.precision;
  tier : Treebeard.tier;
  batches : float array array array;
  refs : Check.reference array;  (** what the tb predictor must return *)
  float_refs : Check.reference array;  (** what the baseline must return *)
  xgb : Xgboost.t;
}

let prepare ~seed =
  Array.of_list
    (List.map
       (fun label ->
         let name, precision, tier = resolve_label label in
         let model = Fixtures.model name in
         let forest = Fixtures.forest model in
         let rng = Fixtures.rng ~seed ("bulk/" ^ label) in
         let batches =
           Array.init pool_batches (fun _ ->
               Fixtures.sample_rows model batch_rows rng)
         in
         let float_refs = Array.map (Check.float_reference forest) batches in
         let refs =
           match precision with
           | `Float -> float_refs
           | `Quantized q ->
             let qm = Fixtures.qmodel forest ~tolerance:q.Treebeard.tolerance in
             Array.map (Check.int_reference qm) batches
         in
         let xgb = Xgboost.compile forest in
         { label; model; precision; tier; batches; refs; float_refs; xgb })
       Spec.bulk_predictors)

(* The system's set-up for one predictor: load the model file and let the
   autotuner compile it. *)
let build p =
  let forest = Tb_model.Serialize.of_file p.model.Fixtures.path in
  Treebeard.make ~plan:(`Auto target)
    ~training_rows:(Fixtures.train_rows p.model)
    ~backend:`Single_thread ~precision:p.precision (`Forest forest)

let setup preds =
  let t0 = Trace.now () in
  let compiled = Array.map build preds in
  (compiled, Trace.now () -. t0)

(* [Treebeard.make]'s public calls, one span each, in its order; the
   rebuilt predictor must agree with the composite's bitwise. *)
let replay p (c : Treebeard.t) =
  Trace.span ~layer:false ("replay." ^ p.label) (fun () ->
      let forest =
        Trace.span "model.load" (fun () ->
            Tb_model.Serialize.of_file p.model.Fixtures.path)
      in
      let rows = Fixtures.train_rows p.model in
      let profiles =
        Trace.span "model.profile" (fun () ->
            Tb_model.Model_stats.profile_forest forest rows)
      in
      let r =
        Trace.span "core.explore" (fun () ->
            Explore.greedy ~target ~profiles forest rows)
      in
      Trace.count "core.explore_candidates" (float_of_int r.Explore.evaluated);
      let schedule =
        fst (Schedule.clamp_threads ~max_threads:1 r.Explore.schedule)
      in
      let lower ?quant () =
        Trace.span "lir.lower" (fun () ->
            Lower.lower ~profiles ?quant forest schedule)
      in
      let resolution =
        Trace.span "analysis.certify" (fun () ->
            Treebeard.resolve_precision ~precision:p.precision forest)
      in
      let pack =
        match resolution with
        | Treebeard.Float_tier _ ->
          let lowered = lower () in
          Trace.span "lir.pack" (fun () -> Pack.of_lower lowered)
        | Treebeard.Quant_tier cert ->
          let quant = Treebeard.qspec_of_plan cert.Numeric.plan in
          let checked = lower ~quant () in
          let findings =
            Trace.span "analysis.validate_quant" (fun () ->
                Validate.check_quant forest cert.Numeric.plan checked)
          in
          if findings <> [] then failwith "replay: quantized stage pair refuted";
          let lowered = lower ~quant () in
          let resident_k =
            Trace.span "core.tune_resident" (fun () ->
                Treebeard.tune_resident_k ~target lowered rows)
          in
          Trace.span "lir.pack" (fun () ->
              Pack.of_lower ~quant:(quant_meta cert ~resident_k) lowered)
      in
      let predict =
        Trace.span "vm.instantiate" (fun () -> Jit.instantiate_single_thread pack)
      in
      let rows = p.batches.(0) in
      schedule = c.Treebeard.schedule
      && Check.identical (predict rows) (Treebeard.predict_forest c rows))

(* The compiled predictor's packed form: its working set. *)
let pack_of (c : Treebeard.t) =
  let quant =
    Option.map
      (quant_meta ~resident_k:c.Treebeard.resident_k)
      c.Treebeard.certificate
  in
  Pack.of_lower ?quant c.Treebeard.lowered

let pack_bytes c = float_of_int (Pack.size_bytes (pack_of c))

(* Tile steps per row on a fixed (unseeded) row set: moves only when the
   lowering or the schedule does. *)
let steps_per_row p (c : Treebeard.t) =
  let test = Fixtures.test_rows p.model in
  let rows = Array.sub test 0 (min 128 (Array.length test)) in
  let rows =
    match c.Treebeard.lowered.Lower.layout.Layout.quant with
    | None -> rows
    | Some spec -> Array.map (Layout.quantize_row spec) rows
  in
  let w = Tb_vm.Profiler.profile ~target c.Treebeard.lowered rows in
  let open Tb_cpu.Cost_model in
  float_of_int (w.steps_checked + w.steps_unchecked) /. float_of_int w.rows

type timings = {
  tb : Sample.t array;  (** seconds per untraced tb batch, by predictor *)
  xgb : Sample.t array;
  tb_traced : Sample.t array;
  mutable rounds : int;
  mutable traced_rounds : int;
  mutable words : float;  (** minor words allocated in traced predict calls *)
  mutable words_rows : int;
}

(* Score round after round for [seconds] (at least [min_rounds]). When
   [traced], every other round runs with tracing on. *)
let measure ~seconds ~traced tally preds compiled =
  let n = Array.length preds in
  let fresh () = Array.init n (fun _ -> Sample.create ()) in
  let t =
    {
      tb = fresh ();
      xgb = fresh ();
      tb_traced = fresh ();
      rounds = 0;
      traced_rounds = 0;
      words = 0.0;
      words_rows = 0;
    }
  in
  Gc.compact ();
  let deadline = Trace.now () +. seconds in
  while t.rounds < min_rounds || Trace.now () < deadline do
    let r = t.rounds in
    let trace_this = traced && r land 1 = 1 in
    Trace.enabled := trace_this;
    Array.iteri
      (fun i p ->
        let c : Treebeard.t = compiled.(i) in
        let b = r mod pool_batches in
        let rows = p.batches.(b) in
        let run_tb () =
          let t0 = Trace.now () in
          match
            Trace.span ("vm.predict." ^ p.label) (fun () ->
                Outcome.words_during (fun () -> Treebeard.predict_forest c rows))
          with
          | out, words ->
            let dt = Trace.now () -. t0 in
            if trace_this then begin
              Sample.add t.tb_traced.(i) dt;
              t.words <- t.words +. words;
              t.words_rows <- t.words_rows + batch_rows
            end
            else Sample.add t.tb.(i) dt;
            Outcome.record tally
              (Check.op_ok ~expected_tier:p.tier ~tier:c.Treebeard.tier
                 p.refs.(b) out)
          | exception _ -> Outcome.record tally false
        in
        let run_xgb () =
          let t0 = Trace.now () in
          match
            Trace.span ("baselines.xgboost." ^ p.model.Fixtures.name) (fun () ->
                Xgboost.predict_batch p.xgb Xgboost.V15 rows)
          with
          | out ->
            if not trace_this then Sample.add t.xgb.(i) (Trace.now () -. t0);
            Outcome.record tally (Check.outputs_ok p.float_refs.(b) out)
          | exception _ -> Outcome.record tally false
        in
        if (r / 2) land 1 = 0 then begin
          run_tb ();
          run_xgb ()
        end
        else begin
          run_xgb ();
          run_tb ()
        end)
      preds;
    t.rounds <- r + 1;
    if trace_this then t.traced_rounds <- t.traced_rounds + 1
  done;
  Trace.enabled := false;
  t

let run ~seed ~seconds ~traced =
  let preds = prepare ~seed in
  let tally = Outcome.tally () in
  (* One set-up per run: the autotuner takes about 30 s of it. *)
  let compiled, setup_s = setup preds in
  if not traced then begin
    let t = measure ~seconds ~traced:false tally preds compiled in
    let tb = Array.to_list t.tb and xgb = Array.to_list t.xgb in
    Outcome.make tally
      [
        ("setup_s", setup_s);
        ( "rows_per_s",
          Outcome.rows_per_s ~rows_per_op:(float_of_int batch_rows) tb );
        ("speedup_vs_xgboost", Outcome.speedup_vs_xgboost ~tb ~xgb);
        ( "artifact_mb",
          Array.fold_left (fun acc c -> acc +. pack_bytes c) 0.0 compiled
          /. 1e6 );
        ("peak_heap_mb", Outcome.peak_heap_mb ());
      ]
  end
  else begin
    Trace.enabled := true;
    Array.iteri
      (fun i p ->
        Outcome.record tally (try replay p compiled.(i) with _ -> false))
      preds;
    Trace.enabled := false;
    let t = measure ~seconds ~traced:true tally preds compiled in
    let med = Sample.median in
    let ms name = 1e3 *. Trace.self_s name in
    let per_row s = 1e6 *. med s /. float_of_int batch_rows in
    let per_pred prefix f =
      Array.to_list
        (Array.mapi (fun i p -> (prefix ^ "." ^ p.label, f i p)) preds)
    in
    let models =
      List.sort_uniq compare
        (Array.to_list (Array.map (fun p -> p.model.Fixtures.name) preds))
    in
    (* Untraced-equivalent time of the traced rounds, for coverage. *)
    let traced_equiv =
      float_of_int t.traced_rounds
      *. Array.fold_left ( +. ) 0.0
           (Array.mapi (fun i s -> med s +. med t.xgb.(i)) t.tb)
    in
    Outcome.make tally
      ([
         ("core.explore_s", Trace.self_s "core.explore");
         ("core.explore_candidates", Trace.counter "core.explore_candidates");
         ("core.tune_resident_ms", ms "core.tune_resident");
         ("model.load_ms", ms "model.load");
         ("model.profile_ms", ms "model.profile");
         ("analysis.certify_ms", ms "analysis.certify");
         ("analysis.validate_quant_ms", ms "analysis.validate_quant");
         ("lir.lower_ms", ms "lir.lower");
         ("lir.pack_ms", ms "lir.pack");
         ("vm.instantiate_ms", ms "vm.instantiate");
         ( "vm.alloc_words_per_row",
           t.words /. float_of_int (max 1 t.words_rows) );
         ( "trace.overhead_pct",
           Outcome.overhead_pct ~traced:(Array.to_list t.tb_traced)
             ~untraced:(Array.to_list t.tb) );
         ( "trace.coverage",
           Trace.layer_self_s () /. (setup_s +. traced_equiv) );
       ]
      @ per_pred "lir.model_kb" (fun i _ -> pack_bytes compiled.(i) /. 1024.0)
      @ per_pred "vm.us_per_row" (fun i _ -> per_row t.tb_traced.(i))
      @ per_pred "vm.steps_per_row" (fun i p -> steps_per_row p compiled.(i))
      @ List.map
          (fun m ->
            ( "baselines.xgboost_us_per_row." ^ m,
              per_row (Trace.durations ("baselines.xgboost." ^ m)) ))
          models)
  end

(* deploy: warm restart.

   Set-up compiles all eight zoo models at the default schedule (float),
   plus abalone at int16, through a registry backed by an on-disk
   artifact store — the write side. Each measured iteration simulates one
   process restart: a fresh registry over that store, then, key by key in
   a seeded order, load the model file, ask the registry for the compiled
   predictor (which must come from disk) and make one first single-row
   prediction. An xgboost-style restart of the same key — the same loaded
   model, packed into node arrays, then the same first row — is timed
   right after. *)

module Registry = Tb_serve.Registry
module Artifact = Tb_serve.Artifact
module Treebeard = Tb_core.Treebeard
module Schedule = Tb_hir.Schedule
module Lower = Tb_lir.Lower
module Layout = Tb_lir.Layout
module Pack = Tb_lir.Pack
module Jit = Tb_vm.Jit
module Perf = Tb_core.Perf
module Numeric = Tb_analysis.Numeric
module Validate = Tb_analysis.Validate
module Xgboost = Tb_baselines.Xgboost
module Prng = Tb_util.Prng

let target = Tb_cpu.Config.intel_rocket_lake
let pool_rows = 32
let min_restarts = 2

(* Set-up takes a few seconds: repeat it and report the median. *)
let setups = 3

type key = {
  label : string;
  fixture : Fixtures.model;
  precision : Treebeard.precision;
  tier : Treebeard.tier;
  rows : float array array;
  refs : Check.reference array;  (** per row: the first prediction *)
  float_refs : Check.reference array;  (** per row: the baseline's *)
  sample : float array array;  (** the registry's service-model rows *)
}

let prepare ~seed =
  Array.of_list
    (List.map
       (fun label ->
         let name, precision, tier = Bulk.resolve_label label in
         let fixture = Fixtures.model name in
         let forest = Fixtures.forest fixture in
         let rows =
           Fixtures.sample_rows fixture pool_rows
             (Fixtures.rng ~seed ("deploy/" ^ label))
         in
         let float_refs =
           Array.map (fun r -> Check.float_reference forest [| r |]) rows
         in
         let refs =
           match precision with
           | `Float -> float_refs
           | `Quantized q ->
             let qm = Fixtures.qmodel forest ~tolerance:q.Treebeard.tolerance in
             Array.map (fun r -> Check.int_reference qm [| r |]) rows
         in
         let sample = Array.sub (Fixtures.train_rows fixture) 0 48 in
         { label; fixture; precision; tier; rows; refs; float_refs; sample })
       Spec.deploy_keys)

(* One store per process, so concurrent runs in one checkout cannot
   disturb each other. *)
let store_dir () =
  Filename.concat (Fixtures.state_dir ())
    (Printf.sprintf "deploy-store-%d" (Unix.getpid ()))

let model_name k = k.fixture.Fixtures.name
let load k = Tb_model.Serialize.of_file k.fixture.Fixtures.path

let register reg k forest =
  Registry.register reg ~name:(model_name k) ~sample_rows:k.sample forest

let compiled reg k =
  Registry.compiled ~precision:k.precision reg ~model:(model_name k)
    ~schedule:Schedule.default

(* The system's set-up: compile every key into an empty store. The old
   store is removed before the clock starts. *)
let setup keys =
  let store = store_dir () in
  Fixtures.remove_tree store;
  let t0 = Trace.now () in
  let reg = Registry.create ~target ~capacity:16 ~cache_dir:store () in
  let entries =
    Array.map
      (fun k ->
        register reg k (load k);
        let c, prov = compiled reg k in
        if prov <> `Compile then failwith "deploy set-up: expected a compile";
        c)
      keys
  in
  (entries, Trace.now () -. t0)

(* The store file holding each entry's artifact: the one whose bytes are
   the entry's pack, encoded. *)
let files_of entries =
  let store = store_dir () in
  let files =
    Sys.readdir store |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".tbpack")
    |> List.map (fun f ->
           let path = Filename.concat store f in
           (path, Artifact.read_file path))
  in
  Array.map
    (fun (c : Registry.compiled) ->
      let bytes = Ok (Pack.encode c.Registry.artifact) in
      match List.find_opt (fun (_, b) -> b = bytes) files with
      | Some (path, _) -> path
      | None -> failwith ("deploy set-up: no artifact for " ^ c.Registry.model))
    entries

let file_bytes path = float_of_int (Unix.stat path).Unix.st_size

(* The registry resolves a quantized request by certifying, lowering and
   validating; replayed with one span per call. *)
let replay_resolve k forest schedule =
  match
    Trace.span "analysis.certify" (fun () ->
        Treebeard.resolve_precision ~precision:k.precision forest)
  with
  | Treebeard.Float_tier _ -> None
  | Treebeard.Quant_tier cert ->
    let quant = Treebeard.qspec_of_plan cert.Numeric.plan in
    let checked =
      Trace.span "lir.lower" (fun () -> Lower.lower ~quant forest schedule)
    in
    let findings =
      Trace.span "analysis.validate_quant" (fun () ->
          Validate.check_quant forest cert.Numeric.plan checked)
    in
    if findings <> [] then failwith "replay: quantized stage pair refuted";
    Some (cert, quant)

(* [Registry.compiled]'s compile-and-store path, one span per public
   call, in its order. The replay writes its own artifact, which must be
   byte-identical to the stored one, and its predictor must agree with
   the composite's bitwise. *)
let replay_compile k (c : Registry.compiled) file =
  Trace.span ~layer:false ("replay.compile." ^ k.label) (fun () ->
      let forest = Trace.span "model.load" (fun () -> load k) in
      let schedule = c.Registry.schedule in
      let lowered, quant =
        match replay_resolve k forest schedule with
        | None ->
          (Trace.span "lir.lower" (fun () -> Lower.lower forest schedule), None)
        | Some (cert, quant) ->
          let lowered =
            Trace.span "lir.lower" (fun () -> Lower.lower ~quant forest schedule)
          in
          let resident_k =
            Trace.span "core.tune_resident" (fun () ->
                Treebeard.tune_resident_k ~target lowered k.sample)
          in
          (lowered, Some (Bulk.quant_meta cert ~resident_k))
      in
      let pack =
        Trace.span "lir.pack" (fun () ->
            Pack.of_lower ~model:(model_name k) ~target:target.Tb_cpu.Config.name
              ?quant lowered)
      in
      let predict =
        Trace.span "vm.instantiate" (fun () -> Jit.instantiate_single_thread pack)
      in
      let sim_rows =
        match lowered.Lower.layout.Layout.quant with
        | None -> k.sample
        | Some spec -> Array.map (Layout.quantize_row spec) k.sample
      in
      let perf =
        Trace.span "core.simulate" (fun () -> Perf.simulate ~target lowered sim_rows)
      in
      let meta = { pack.Pack.meta with Pack.us_per_row = perf.Perf.time_per_row_us } in
      let bytes =
        Trace.span "lir.encode" (fun () -> Pack.encode { pack with Pack.meta })
      in
      let dir = store_dir () ^ "-replay" in
      Fixtures.mkdir_p dir;
      let copy = Filename.concat dir (Filename.basename file) in
      let written =
        Trace.span "serve.artifact_write" (fun () -> Artifact.write_file copy bytes)
      in
      let same_file = Artifact.read_file copy = Artifact.read_file file in
      Fixtures.remove_tree dir;
      written = Ok () && same_file
      && Check.identical (predict k.rows) (c.Registry.predict k.rows))

(* [Registry.compiled]'s disk path: resolve the precision tier, read and
   decode the artifact, instantiate. The rebuilt predictor's first answer
   must equal the composite's bitwise. *)
let replay_restart k forest (c : Registry.compiled) file row out =
  Trace.span ~layer:false ("replay.restart." ^ k.label) (fun () ->
      let resolved =
        Option.is_some (replay_resolve k forest c.Registry.schedule)
        = (k.tier <> `Float)
      in
      match Trace.span "serve.artifact_load" (fun () -> Artifact.read_file file) with
      | Error _ -> false
      | Ok bytes -> (
        match Trace.span "lir.decode" (fun () -> Pack.decode bytes) with
        | Error _ -> false
        | Ok pack ->
          let predict =
            Trace.span "vm.instantiate" (fun () ->
                Jit.instantiate_single_thread pack)
          in
          resolved && Check.identical (predict [| row |]) out))

type timings = {
  tb : Sample.t array;  (** seconds from model load to first prediction *)
  xgb : Sample.t array;  (** the same for the xgboost-style restart *)
  xgb_own : Sample.t array;  (** its part after the shared model load *)
  tb_traced : Sample.t array;
  mutable restarts : int;
  mutable traced_restarts : int;
  mutable compiles : int;
  mutable hydrations : int;
  mutable words : float;
}

let timings n =
  let fresh () = Array.init n (fun _ -> Sample.create ()) in
  {
    tb = fresh ();
    xgb = fresh ();
    xgb_own = fresh ();
    tb_traced = fresh ();
    restarts = 0;
    traced_restarts = 0;
    compiles = 0;
    hydrations = 0;
    words = 0.0;
  }

(* One simulated process restart over every key, in a seeded order. *)
let restart ~trace_this tally t keys files rng =
  let order = Array.init (Array.length keys) Fun.id in
  Prng.shuffle rng order;
  let reg = Registry.create ~target ~capacity:16 ~cache_dir:(store_dir ()) () in
  Array.iter
    (fun i ->
      let k = keys.(i) in
      let ri = Prng.int rng pool_rows in
      let row = k.rows.(ri) in
      let t0 = Trace.now () in
      match
        let forest = Trace.span "model.load" (fun () -> load k) in
        let loaded = Trace.now () in
        Trace.span "serve.register" (fun () -> register reg k forest);
        let c, prov =
          Trace.span ~layer:false "serve.compiled" (fun () -> compiled reg k)
        in
        let out, words =
          Trace.span "vm.first_predict" (fun () ->
              Outcome.words_during (fun () -> c.Registry.predict [| row |]))
        in
        let t1 = Trace.now () in
        (forest, c, prov, out, words, loaded -. t0, t1 -. t0)
      with
      | exception _ -> Outcome.record tally false
      | forest, c, prov, out, words, load_s, dt ->
        if trace_this then begin
          Sample.add t.tb_traced.(i) dt;
          t.words <- t.words +. words
        end
        else Sample.add t.tb.(i) dt;
        Outcome.record tally
          (prov = `Disk
          && Check.op_ok ~expected_tier:k.tier ~tier:c.Registry.tier k.refs.(ri) out
          );
        let t2 = Trace.now () in
        (match
           let x =
             Trace.span "baselines.xgboost_compile" (fun () ->
                 Xgboost.compile forest)
           in
           Trace.span ("baselines.xgboost." ^ model_name k) (fun () ->
               Xgboost.predict_batch x Xgboost.V15 [| row |])
         with
        | xout ->
          if not trace_this then begin
            let own = Trace.now () -. t2 in
            Sample.add t.xgb.(i) (load_s +. own);
            Sample.add t.xgb_own.(i) own
          end;
          Outcome.record tally (Check.outputs_ok k.float_refs.(ri) xout)
        | exception _ -> Outcome.record tally false);
        if trace_this then
          Outcome.record tally
            (try replay_restart k forest c files.(i) row out with _ -> false))
    order;
  t.compiles <- t.compiles + Registry.compile_count reg;
  t.hydrations <- t.hydrations + Registry.hydration_count reg

(* Restart for [seconds] (at least [min_restarts] times). When [traced],
   every other restart runs with tracing on. *)
let measure ~seconds ~traced ~rng tally t keys files =
  Gc.compact ();
  let deadline = Trace.now () +. seconds and first = t.restarts in
  while t.restarts - first < min_restarts || Trace.now () < deadline do
    let trace_this = traced && t.restarts land 1 = 1 in
    Trace.enabled := trace_this;
    restart ~trace_this tally t keys files rng;
    t.restarts <- t.restarts + 1;
    if trace_this then t.traced_restarts <- t.traced_restarts + 1
  done;
  Trace.enabled := false

let run_in_store ~seed ~seconds ~traced =
  let keys = prepare ~seed in
  let n = Array.length keys in
  let tally = Outcome.tally () in
  let t = timings n in
  let rng = Fixtures.rng ~seed "deploy/restarts" in
  (* Each set-up is followed by its share of the restarts, so the set-up
     samples are spread over the whole run. *)
  let setup_times = Sample.create () in
  let files = ref [||] in
  let before = ref (fun _ -> 0.0) in
  for slice = 1 to setups do
    Gc.compact ();
    let entries, dt = setup keys in
    Sample.add setup_times dt;
    files := files_of entries;
    if traced && slice = 1 then begin
      Trace.enabled := true;
      Array.iteri
        (fun i k ->
          Outcome.record tally
            (try replay_compile k entries.(i) !files.(i) with _ -> false))
        keys;
      Trace.enabled := false;
      before := Trace.snapshot ()
    end;
    let seconds = seconds /. float_of_int setups in
    measure ~seconds ~traced ~rng tally t keys !files
  done;
  let files = !files in
  let setup_s = Sample.median setup_times in
  let tb = Array.to_list t.tb and xgb = Array.to_list t.xgb in
  if not traced then
    Outcome.make tally
      [
        ("setup_s", setup_s);
        ("rows_per_s", Outcome.rows_per_s ~rows_per_op:1.0 tb);
        ("speedup_vs_xgboost", Outcome.speedup_vs_xgboost ~tb ~xgb);
        ( "artifact_mb",
          Array.fold_left (fun acc f -> acc +. file_bytes f) 0.0 files /. 1e6
        );
        ("peak_heap_mb", Outcome.peak_heap_mb ());
      ]
  else begin
    let med = Sample.median in
    let ms name =
      Outcome.per_phase_ms name ~before:!before ~iterations:t.traced_restarts
    in
    (* Untraced-equivalent time of the traced restarts, for coverage. *)
    let traced_equiv =
      Array.fold_left ( +. ) 0.0
        (Array.mapi
           (fun i s ->
             float_of_int (Sample.length s) *. (med t.tb.(i) +. med t.xgb_own.(i)))
           t.tb_traced)
    in
    Outcome.make tally
      ([
         ("model.load_ms", ms "model.load");
         ("analysis.certify_ms", ms "analysis.certify");
         ("analysis.validate_quant_ms", ms "analysis.validate_quant");
         ("lir.lower_ms", ms "lir.lower");
         ("lir.pack_ms", ms "lir.pack");
         ("lir.encode_ms", ms "lir.encode");
         ("lir.decode_ms", ms "lir.decode");
         ("core.tune_resident_ms", ms "core.tune_resident");
         ("core.simulate_ms", ms "core.simulate");
         ("vm.instantiate_ms", ms "vm.instantiate");
         ("vm.first_predict_ms", ms "vm.first_predict");
         ( "vm.alloc_words_per_row",
           t.words /. float_of_int (t.traced_restarts * n) );
         ("serve.register_ms", ms "serve.register");
         ("serve.artifact_load_ms", ms "serve.artifact_load");
         ("serve.artifact_write_ms", ms "serve.artifact_write");
         ( "serve.hydrations",
           float_of_int t.hydrations /. float_of_int t.restarts );
         ("serve.compiles", float_of_int t.compiles);
         ("baselines.xgboost_compile_ms", ms "baselines.xgboost_compile");
         ( "trace.overhead_pct",
           Outcome.overhead_pct ~traced:(Array.to_list t.tb_traced)
             ~untraced:(Array.to_list t.tb) );
         ( "trace.coverage",
           Trace.layer_self_s () /. (setup_s +. traced_equiv) );
       ]
      @ Array.to_list
          (Array.mapi
             (fun i k ->
               ("lir.artifact_kb." ^ k.label, file_bytes files.(i) /. 1024.0))
             keys))
  end

let run ~seed ~seconds ~traced =
  Fun.protect
    ~finally:(fun () -> Fixtures.remove_tree (store_dir ()))
    (fun () -> run_in_store ~seed ~seconds ~traced)

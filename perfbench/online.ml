(* online: one closed-loop client sending single-row requests.

   Each request names a model drawn from a seeded Zipf(0.9) stream over
   four 100-tree models and is served through the registry's in-memory
   tier: a lookup (a hit after warm-up) and a one-row prediction. The
   models are compiled at the default schedule, so the autotuner never
   runs. Each request is interleaved with an xgboost-style (V15) walk of
   the same row, the pair's order alternating between requests. *)

module Registry = Tb_serve.Registry
module Treebeard = Tb_core.Treebeard
module Schedule = Tb_hir.Schedule
module Lower = Tb_lir.Lower
module Pack = Tb_lir.Pack
module Jit = Tb_vm.Jit
module Perf = Tb_core.Perf
module Xgboost = Tb_baselines.Xgboost
module Prng = Tb_util.Prng

let target = Tb_cpu.Config.intel_rocket_lake
let theta = 0.9
let pool_rows = 256
let stream_length = 1 lsl 16
let warmup_requests = 500
let min_requests = 500

(* Set-up takes about half a second: repeat it and report the median. *)
let setups = 9

type model = {
  name : string;
  fixture : Fixtures.model;
  rows : float array array;
  refs : Check.reference array;  (** per row *)
  sample : float array array;  (** the registry's service-model rows *)
  xgb : Xgboost.t;
}

let prepare ~seed =
  let models =
    Array.of_list
      (List.map
         (fun name ->
           let fixture = Fixtures.model name in
           let forest = Fixtures.forest fixture in
           let rows =
             Fixtures.sample_rows fixture pool_rows
               (Fixtures.rng ~seed ("online/" ^ name))
           in
           {
             name;
             fixture;
             rows;
             refs = Array.map (fun r -> Check.float_reference forest [| r |]) rows;
             sample = Array.sub (Fixtures.train_rows fixture) 0 48;
             xgb = Xgboost.compile forest;
           })
         Spec.online_models)
  in
  let zipf = Tb_util.Zipf.create ~n:(Array.length models) ~theta in
  let rng = Fixtures.rng ~seed "online/stream" in
  let stream =
    Array.init stream_length (fun _ ->
        let m = Tb_util.Zipf.draw zipf rng in
        (m, Prng.int rng pool_rows))
  in
  (models, stream)

let load m = Tb_model.Serialize.of_file m.fixture.Fixtures.path

(* The system's set-up: a registry holding every model, each loaded from
   its file and compiled once. *)
let setup models =
  let t0 = Trace.now () in
  let reg = Registry.create ~target () in
  let entries =
    Array.map
      (fun m ->
        Registry.register reg ~name:m.name ~sample_rows:m.sample (load m);
        let c, prov =
          Registry.compiled reg ~model:m.name ~schedule:Schedule.default
        in
        if prov <> `Compile then failwith "online set-up: expected a compile";
        c)
      models
  in
  (reg, entries, Trace.now () -. t0)

(* [Registry.compiled]'s compile path, one span per public call, in its
   order; the rebuilt predictor and service model must match the
   composite's bitwise. *)
let replay m (c : Registry.compiled) =
  Trace.span ~layer:false ("replay." ^ m.name) (fun () ->
      let forest = Trace.span "model.load" (fun () -> load m) in
      ignore
        (Trace.span "analysis.certify" (fun () ->
             Treebeard.resolve_precision ~precision:`Float forest));
      let lowered =
        Trace.span "lir.lower" (fun () -> Lower.lower forest c.Registry.schedule)
      in
      let pack =
        Trace.span "lir.pack" (fun () ->
            Pack.of_lower ~model:m.name ~target:target.Tb_cpu.Config.name lowered)
      in
      let predict =
        Trace.span "vm.instantiate" (fun () -> Jit.instantiate_single_thread pack)
      in
      let perf =
        Trace.span "core.simulate" (fun () ->
            Perf.simulate ~target lowered m.sample)
      in
      Check.same_bits perf.Perf.time_per_row_us
        c.Registry.artifact.Pack.meta.Pack.us_per_row
      && Check.identical (predict m.rows) (c.Registry.predict m.rows))

type timings = {
  tb : Sample.t array;  (** seconds per untraced request, by model *)
  xgb : Sample.t array;
  tb_traced : Sample.t array;
  mutable next : int;  (** position in the request stream *)
  mutable requests : int;
  mutable hits : int;
  mutable words : float;
}

let timings n =
  let fresh () = Array.init n (fun _ -> Sample.create ()) in
  {
    tb = fresh ();
    xgb = fresh ();
    tb_traced = fresh ();
    next = 0;
    requests = 0;
    hits = 0;
    words = 0.0;
  }

(* Serve requests from the stream for [seconds] (at least
   [min_requests]), after an unrecorded warm-up. When [traced], every
   other request runs with tracing on. *)
let measure ~seconds ~traced tally t models stream reg =
  let request ~record i =
    let mi, ri = stream.(i mod stream_length) in
    let m = models.(mi) in
    let row = m.rows.(ri) in
    let trace_this = traced && record && i land 1 = 1 in
    Trace.enabled := trace_this;
    let run_tb () =
      let t0 = Trace.now () in
      match
        let c, prov =
          Trace.span "serve.lookup" (fun () ->
              Registry.compiled reg ~model:m.name ~schedule:Schedule.default)
        in
        let out, words =
          Trace.span ("vm.predict_one." ^ m.name) (fun () ->
              Outcome.words_during (fun () -> c.Registry.predict [| row |]))
        in
        (c, prov, out, words)
      with
      | c, prov, out, words ->
        let dt = Trace.now () -. t0 in
        if record then begin
          t.requests <- t.requests + 1;
          if prov = `Hit then t.hits <- t.hits + 1;
          if trace_this then begin
            Sample.add t.tb_traced.(mi) dt;
            t.words <- t.words +. words
          end
          else Sample.add t.tb.(mi) dt;
          Outcome.record tally
            (prov = `Hit
            && Check.op_ok ~expected_tier:`Float ~tier:c.Registry.tier
                 m.refs.(ri) out)
        end
      | exception _ -> if record then Outcome.record tally false
    in
    let run_xgb () =
      let t0 = Trace.now () in
      match
        Trace.span ("baselines.xgboost." ^ m.name) (fun () ->
            Xgboost.predict_batch m.xgb Xgboost.V15 [| row |])
      with
      | out ->
        if record then begin
          if not trace_this then Sample.add t.xgb.(mi) (Trace.now () -. t0);
          Outcome.record tally (Check.outputs_ok m.refs.(ri) out)
        end
      | exception _ -> if record then Outcome.record tally false
    in
    if (i / 2) land 1 = 0 then begin
      run_tb ();
      run_xgb ()
    end
    else begin
      run_xgb ();
      run_tb ()
    end
  in
  for _ = 1 to warmup_requests do
    request ~record:false t.next;
    t.next <- t.next + 1
  done;
  Gc.compact ();
  let deadline = Trace.now () +. seconds and first = t.next in
  while t.next - first < min_requests || Trace.now () < deadline do
    request ~record:true t.next;
    t.next <- t.next + 1
  done;
  Trace.enabled := false

let run ~seed ~seconds ~traced =
  let models, stream = prepare ~seed in
  let tally = Outcome.tally () in
  let t = timings (Array.length models) in
  (* Each set-up is followed by its share of the measured phase, so the
     set-up samples are spread over the whole run. *)
  let setup_times = Sample.create () in
  let entries = ref [||] in
  for slice = 1 to setups do
    Gc.compact ();
    let reg, e, dt = setup models in
    Sample.add setup_times dt;
    entries := e;
    if traced && slice = 1 then begin
      Trace.enabled := true;
      Array.iteri
        (fun i m -> Outcome.record tally (try replay m e.(i) with _ -> false))
        models;
      Trace.enabled := false
    end;
    let seconds = seconds /. float_of_int setups in
    measure ~seconds ~traced tally t models stream reg
  done;
  let setup_s = Sample.median setup_times in
  let artifact_bytes c = float_of_int (Pack.size_bytes c.Registry.artifact) in
  let tb = Array.to_list t.tb and xgb = Array.to_list t.xgb in
  if not traced then
    Outcome.make tally
      [
        ("setup_s", setup_s);
        ("rows_per_s", Outcome.rows_per_s ~rows_per_op:1.0 tb);
        ("speedup_vs_xgboost", Outcome.speedup_vs_xgboost ~tb ~xgb);
        ( "artifact_mb",
          Array.fold_left (fun acc c -> acc +. artifact_bytes c) 0.0 !entries
          /. 1e6 );
        ("peak_heap_mb", Outcome.peak_heap_mb ());
      ]
  else begin
    let med = Sample.median in
    let ms name = 1e3 *. Trace.self_s name in
    let us name = 1e6 *. med (Trace.durations name) in
    let traced_requests =
      Array.fold_left (fun acc s -> acc + Sample.length s) 0 t.tb_traced
    in
    (* Untraced-equivalent time of the traced requests and their
       baseline walks, for coverage. *)
    let traced_equiv =
      Array.fold_left ( +. ) 0.0
        (Array.mapi
           (fun i s ->
             float_of_int (Sample.length s) *. (med t.tb.(i) +. med t.xgb.(i)))
           t.tb_traced)
    in
    let per_model prefix f =
      Array.to_list
        (Array.mapi (fun i m -> (prefix ^ "." ^ m.name, f i m)) models)
    in
    Outcome.make tally
      ([
         ("model.load_ms", ms "model.load");
         ("analysis.certify_ms", ms "analysis.certify");
         ("lir.lower_ms", ms "lir.lower");
         ("lir.pack_ms", ms "lir.pack");
         ("vm.instantiate_ms", ms "vm.instantiate");
         ("core.simulate_ms", ms "core.simulate");
         ("serve.lookup_us_p50", us "serve.lookup");
         ( "serve.request_us_p99",
           1e6
           *. Tb_util.Stats.percentile
                (Array.concat (List.map Sample.to_array tb))
                0.99 );
         ("serve.hit_ratio", float_of_int t.hits /. float_of_int t.requests);
         ( "vm.alloc_words_per_row",
           t.words /. float_of_int (max 1 traced_requests) );
         ( "trace.overhead_pct",
           Outcome.overhead_pct ~traced:(Array.to_list t.tb_traced)
             ~untraced:(Array.to_list t.tb) );
         ( "trace.coverage",
           Trace.layer_self_s () /. (setup_s +. traced_equiv) );
       ]
      @ per_model "vm.predict_one_us_p50" (fun _ m ->
            us ("vm.predict_one." ^ m.name))
      @ per_model "baselines.xgboost_us_per_row" (fun _ m ->
            us ("baselines.xgboost." ^ m.name))
      @ per_model "lir.artifact_kb" (fun i _ ->
            artifact_bytes !entries.(i) /. 1024.0))
  end

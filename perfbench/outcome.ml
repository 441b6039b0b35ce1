(* What one workload run produced: operations attempted and failed, and
   its metrics by name. *)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let record t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

type t = { attempted : int; failed : int; metrics : (string * float) list }

let make (t : tally) metrics =
  { attempted = t.attempted; failed = t.failed; metrics }

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1e6

(* Minor-heap words allocated by [f ()], excluding what reading the
   counter itself allocates. *)
let counter_cost =
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  b -. a

let words_during f =
  let w0 = Gc.minor_words () in
  let v = f () in
  let w1 = Gc.minor_words () in
  (v, Float.max 0.0 (w1 -. w0 -. counter_cost))

(* Self time per repetition of each phase, summed: a span that occurs in
   set-up and in the measured phase reads as "per set-up + per measured
   iteration". [before] is {!Trace.self_s} taken between the phases. *)
let per_phase_ms name ~before ~iterations =
  let setup = before name in
  let measured = Trace.self_s name -. setup in
  let per_iteration =
    if iterations > 0 then measured /. float_of_int iterations else 0.0
  in
  1e3 *. (setup +. per_iteration)

(* Per-operation times are summarised at their 90th percentile. On a
   shared host the same code runs in two speed regimes (a quiet one and
   a contended one 1.3-1.6x slower, switching every few seconds), and
   the share of a run spent in each varies from run to run. The median
   jumps between the regimes whenever that share crosses one half; the
   90th percentile stays in the contended regime unless nine tenths of a
   run is quiet, so it is the steadier summary. *)
let typical = 0.9

(* Geometric mean over groups (predictors, models or keys) of each
   group's own statistic, so the mix of groups does not move it. *)
let over_groups f groups = Sample.geomean (List.map f groups)

let rows_per_s ~rows_per_op tb =
  over_groups (fun s -> rows_per_op /. Sample.percentile s typical) tb

let speedup_vs_xgboost ~tb ~xgb =
  Sample.geomean
    (List.map2
       (fun t x -> Sample.percentile x typical /. Sample.percentile t typical)
       tb xgb)

(* Traced against untraced operation time, median per group, in percent. *)
let overhead_pct ~traced ~untraced =
  100.0
  *. (Sample.geomean
        (List.map2
           (fun t u -> Sample.median t /. Sample.median u)
           traced untraced)
     -. 1.0)

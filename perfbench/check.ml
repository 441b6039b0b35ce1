(* Output checks applied to every measured operation.

   A float-tier output must match the source forest's reference walk
   ({!Tb_model.Forest.predict_batch_raw}) within 1e-5, absolute plus
   relative — the bound the differential suite uses. An integer-tier
   output must equal the certified integer evaluator
   ({!Tb_analysis.Numeric.qpredict_raw}) bit for bit. A predictor that
   resolved to another precision tier than the workload asked for fails
   every operation it serves. *)

type reference =
  | Close of float array array  (** float tier: within [tolerance] *)
  | Exact of float array array  (** integer tier: bitwise *)

let tolerance = 1e-5

let close a b = Float.abs (a -. b) <= tolerance +. (tolerance *. Float.abs b)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let rows_match eq out expected =
  Array.length out = Array.length expected
  && Array.for_all2
       (fun o e -> Array.length o = Array.length e && Array.for_all2 eq o e)
       out expected

let outputs_ok reference out =
  match reference with
  | Close expected -> rows_match close out expected
  | Exact expected -> rows_match same_bits out expected

(* One operation's verdict: the right tier, and the right numbers. *)
let op_ok ~expected_tier ~tier reference out =
  expected_tier = tier && outputs_ok reference out

(* References for a batch, computed before any timer starts. *)
let float_reference forest rows =
  Close (Tb_model.Forest.predict_batch_raw forest rows)

let int_reference qmodel rows =
  Exact (Array.map (Tb_analysis.Numeric.qpredict_raw qmodel) rows)

(* Bitwise agreement of two predictors' outputs: how a traced replay
   proves it rebuilt the same predictor as the composite call it
   stands in for. *)
let identical a b = rows_match same_bits a b

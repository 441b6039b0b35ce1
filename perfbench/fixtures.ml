(* Fixtures: trained zoo models, their datasets, seeded row samples and
   reference outputs. Every workload builds its fixtures before its first
   timer starts, so no timed phase ever trains a model, generates a
   dataset or computes a reference.

   The zoo cache lives at an absolute path under the checkout,
   [<root>/.perfbench/models], so results depend neither on the working
   directory nor on whether the checkout's own [_models/] is populated. A
   missing model is trained once (deterministically, by
   {!Tb_gbt.Zoo.get}) and renamed into place atomically; each such build
   is announced on standard output and recorded in the trace. *)

module Zoo = Tb_gbt.Zoo
module Dataset = Tb_data.Dataset

let root = ref (Sys.getcwd ())
let state_dir () = Filename.concat !root ".perfbench"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Fixture builds in this run, oldest first. *)
let built : string list ref = ref []

let note fmt =
  Printf.ksprintf
    (fun s ->
      built := !built @ [ s ];
      Printf.printf "fixture: %s\n%!" s)
    fmt

type model = { name : string; path : string; entry : Zoo.entry }

let models : (string, model) Hashtbl.t = Hashtbl.create 8

let model name =
  match Hashtbl.find_opt models name with
  | Some m -> m
  | None ->
    let dir = Filename.concat (state_dir ()) "models" in
    mkdir_p dir;
    let path = Filename.concat dir (name ^ ".json") in
    if not (Sys.file_exists path) then begin
      let t0 = Unix.gettimeofday () in
      let tmp = Filename.concat dir (Printf.sprintf ".train-%d" (Unix.getpid ())) in
      remove_tree tmp;
      mkdir_p tmp;
      ignore (Zoo.get ~cache_dir:tmp name);
      Sys.rename (Filename.concat tmp (name ^ ".json")) path;
      remove_tree tmp;
      note "trained zoo model %s in %.1f s" name (Unix.gettimeofday () -. t0)
    end;
    let m = { name; path; entry = Zoo.get ~cache_dir:dir name } in
    Hashtbl.add models name m;
    m

let forest m = m.entry.Zoo.forest
let train_rows m = m.entry.Zoo.train_data.Dataset.features
let test_rows m = m.entry.Zoo.test_data.Dataset.features

(* [n] rows drawn from the model's test split. *)
let sample_rows m n rng = Dataset.subsample_rows m.entry.Zoo.test_data n rng

(* A generator for one purpose of one run: same seed, same stream. *)
let rng ~seed salt = Tb_util.Prng.create ((seed * 1_000_003) + Hashtbl.hash salt)

(* The certified integer evaluator an int16 predictor must match. *)
let qmodel forest ~tolerance =
  let module N = Tb_analysis.Numeric in
  let cert = N.certify ~tolerance ~width:N.I16 forest in
  N.quantize cert.N.plan forest

(* A growable buffer of float samples with the order statistics the
   workloads report. *)

type t = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 256 0.0; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let grown = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 grown 0 t.len;
    t.data <- grown
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let length t = t.len
let to_array t = Array.sub t.data 0 t.len

let sum t =
  let s = ref 0.0 in
  for i = 0 to t.len - 1 do
    s := !s +. t.data.(i)
  done;
  !s

(* Linear interpolation between closest ranks, [p] in [0, 1]. *)
let percentile t p =
  if t.len = 0 then invalid_arg "Sample.percentile: no samples";
  Tb_util.Stats.percentile (to_array t) p

let median t = percentile t 0.5

let geomean xs = Tb_util.Stats.geomean (Array.of_list xs)

module Layout = Tb_lir.Layout
module Lower = Tb_lir.Lower
module Pack = Tb_lir.Pack
module Mir = Tb_mir.Mir
module Schedule = Tb_hir.Schedule

type predictor = float array array -> float array array

(* ------------------------------------------------------------------ *)
(* Unchecked loads                                                     *)
(* ------------------------------------------------------------------ *)

(* The walk kernels below read the layout buffers, the LUT and row
   features through these unchecked loads, and only through them.
   Every index is in bounds by the walkability invariant
   ({!Pack.walkable}), which [instantiate] checks on the pack before it
   builds a predictor, together with the row-width check each predictor
   runs on its batch before any kernel (DESIGN.md §15 maps every load
   to its rule):
   - a cursor slot is LUT-reachable from a tree root, so it indexes
     [shape_ids], [child_ptr] and the narrow [always] masks, and its
     lanes [s*nt, s*nt+nt) index [thresholds], [features] and the
     narrow threshold buffer;
   - a tile slot's shape id names a LUT row, whose 2^nt entries cover
     every comparison outcome;
   - a lane's feature is below the row width every batch row
     is checked against (float) or the quantized row length (narrow);
   - a walk's result is lane 0 of an array-layout leaf slot or an index
     the invariant proved inside the sparse leaf store. *)
external fget : float array -> int -> float = "%array_unsafe_get"
external iget : int array -> int -> int = "%array_unsafe_get"
external rget : int array array -> int -> int array = "%array_unsafe_get"

let[@inline] get8 (b : Layout.narrow8) i = Bigarray.Array1.unsafe_get b i
let[@inline] get16 (b : Layout.narrow16) i = Bigarray.Array1.unsafe_get b i

(* [Layout.leaf_marker] as a literal, so the kernels compare against an
   immediate. *)
let leaf_marker = -1
let () = assert (leaf_marker = Layout.leaf_marker)

(* ------------------------------------------------------------------ *)
(* Kernel view of a layout                                             *)
(* ------------------------------------------------------------------ *)

(* What the kernels read, hoisted out of [Layout.t]. [lanes] holds,
   per LUT row, the lanes a step compares. [direct] marks tile size 1
   with the canonical single-node row [|1; 0|]: the child is [1 - bit]
   and the LUT is skipped. A walk returns an index into [leaves]: lane 0
   of the leaf slot's thresholds (array layout) or the leaf store
   (sparse layout). Narrow kernels read [thr]/[leaves] at the plan's
   width and OR in the slot's [always] mask (+inf marker lanes). *)
type 'v kernel = {
  nt : int;
  fanout : int;
  features : int array;
  shape_ids : int array;
  child_ptr : int array;
  lut : int array array;
  lanes : int array;
  direct : bool;
  always : int array;
  thr : 'v;
  leaves : 'v;
}

(* The lanes a LUT row reads. A row built from a shape of [n] nodes
   selects children [0, n] and reads exactly the lanes [0, n) (node i
   is lane i, the bit [nt-1-i]); so [n] is the row's largest entry.
   Round it up to 1, 2, 4 or 8 lanes within the tile and confirm in
   one pass that the row ignores every lane beyond (a row that does
   not keeps all [nt]). A tile whose shape has fewer nodes than lanes —
   every padding tile has one — is stepped without comparing the lanes
   its row never looks at; their bits stay 0. *)
let lanes_read ~nt (row : int array) =
  let n = ref 0 in
  for b = 0 to Array.length row - 1 do
    if row.(b) > !n then n := row.(b)
  done;
  let n = !n in
  let m = min nt (if n <= 1 then 1 else if n <= 2 then 2 else if n <= 4 then 4 else 8) in
  let keep = ((1 lsl m) - 1) lsl (nt - m) in
  let ignored = ref true in
  for b = 0 to Array.length row - 1 do
    if row.(b land keep) <> row.(b) then ignored := false
  done;
  if !ignored then m else nt

let kernel (lay : Layout.t) ~thr ~leaves ~always =
  let nt = lay.Layout.tile_size in
  {
    nt;
    fanout = nt + 1;
    features = lay.Layout.features;
    shape_ids = lay.Layout.shape_ids;
    child_ptr = lay.Layout.child_ptr;
    lut = lay.Layout.lut;
    lanes = Array.map (lanes_read ~nt) lay.Layout.lut;
    direct = nt = 1 && Array.for_all (fun r -> r = [| 1; 0 |]) lay.Layout.lut;
    always;
    thr;
    leaves;
  }

(* Sparse child: [p + c] into the next tile block, or [-(leaf) - 1] for
   a leaf block ([p] already encodes its first leaf as [-l0 - 1]), as
   [p + c] or [p - c] chosen by p's sign mask without a branch. *)
let[@inline] sparse_next k s c =
  let p = iget k.child_ptr s in
  let m = p asr (Sys.int_size - 1) in
  p + ((c lxor m) - m)

(* ------------------------------------------------------------------ *)
(* Float kernels                                                       *)
(* ------------------------------------------------------------------ *)

(* Comparison bits of the first [m] lanes [i, i+m) of one slot, lane 0
   most significant — [Layout.comparison_bits] over those lanes.
   Comparisons in value position compile branchless (cmpltsd); 1, 2, 4
   and 8 lanes get straight-line code. *)
let[@inline] flane (k : float array kernel) (row : float array) i =
  Bool.to_int (fget row (iget k.features i) < fget k.thr i)

let[@inline] fbits k row i m =
  match m with
  | 8 ->
    (flane k row i lsl 7)
    lor (flane k row (i + 1) lsl 6)
    lor (flane k row (i + 2) lsl 5)
    lor (flane k row (i + 3) lsl 4)
    lor (flane k row (i + 4) lsl 3)
    lor (flane k row (i + 5) lsl 2)
    lor (flane k row (i + 6) lsl 1)
    lor flane k row (i + 7)
  | 4 ->
    (flane k row i lsl 3)
    lor (flane k row (i + 1) lsl 2)
    lor (flane k row (i + 2) lsl 1)
    lor flane k row (i + 3)
  | 2 -> (flane k row i lsl 1) lor flane k row (i + 1)
  | 1 -> flane k row i
  | m ->
    let b = ref 0 in
    for l = 0 to m - 1 do
      b := (!b lsl 1) lor flane k row (i + l)
    done;
    !b

(* Child of tile slot [s] (shape [sid]): compare the lanes its LUT row
   reads, look the child up. *)
let[@inline] fchild k s sid row =
  if k.direct then 1 - flane k row s
  else
    let m = iget k.lanes sid in
    iget (rget k.lut sid) (fbits k row (s * k.nt) m lsl (k.nt - m))

(* Array layout: a cursor is a slot local to the tree's slab; child c of
   local slot l sits at l*(nt+1)+c+1. *)
let[@inline] fstep_array k s sid l row = (l * k.fanout) + fchild k s sid row + 1

let rec fwalk_array k base l row =
  let s = base + l in
  let sid = iget k.shape_ids s in
  if sid = leaf_marker then s * k.nt
  else fwalk_array k base (fstep_array k s sid l row) row

(* Sparse layout: a cursor is an absolute tile slot; a step returns the
   next slot, or [-(leaf index) - 1]. *)
let[@inline] fstep_sparse k s row =
  sparse_next k s (fchild k s (iget k.shape_ids s) row)

let rec fwalk_sparse k s row =
  let next = fstep_sparse k s row in
  if next >= 0 then fwalk_sparse k next row else -next - 1

(* Unrolled walks take [n] steps in which a cursor on a leaf stays put.
   That is no cost to a finite row, which meets its leaf at exactly the
   padded depth, but a padding tile's dead exit ([x < +inf] false for a
   NaN or +inf feature) is a shallower leaf, and the walkability
   invariant only promises a leaf within [n] steps. *)
let fwalk_array_n k base row n =
  let l = ref 0 in
  for _ = 1 to n do
    let s = base + !l in
    let sid = iget k.shape_ids s in
    if sid <> leaf_marker then l := fstep_array k s sid !l row
  done;
  (base + !l) * k.nt

let fwalk_sparse_n k root row n =
  let s = ref root in
  for _ = 1 to n do
    if !s >= 0 then s := fstep_sparse k !s row
  done;
  - !s - 1

(* Jam [count] walks of one tree over rows [i0, i0+count) in lockstep
   for at most [n] steps, stopping early once every cursor rests on its
   leaf; leaves the leaf indices in [cur.(0 .. count-1)]. *)
let fjam_array k base (rows : float array array) i0 count (cur : int array) n =
  for j = 0 to count - 1 do
    cur.(j) <- 0
  done;
  let steps = ref 0 and moving = ref true in
  while !moving && !steps < n do
    moving := false;
    incr steps;
    for j = 0 to count - 1 do
      let l = cur.(j) in
      let s = base + l in
      let sid = iget k.shape_ids s in
      if sid <> leaf_marker then begin
        cur.(j) <- fstep_array k s sid l rows.(i0 + j);
        moving := true
      end
    done
  done;
  for j = 0 to count - 1 do
    cur.(j) <- (base + cur.(j)) * k.nt
  done

let fjam_sparse k root (rows : float array array) i0 count (cur : int array) n =
  for j = 0 to count - 1 do
    cur.(j) <- root
  done;
  let steps = ref 0 and moving = ref true in
  while !moving && !steps < n do
    moving := false;
    incr steps;
    for j = 0 to count - 1 do
      let s = cur.(j) in
      if s >= 0 then begin
        cur.(j) <- fstep_sparse k s rows.(i0 + j);
        moving := true
      end
    done
  done;
  for j = 0 to count - 1 do
    cur.(j) <- -cur.(j) - 1
  done

(* One tree (by its root) on one row, per the group's walk kind,
   returning the leaf index. Peeled walks run as loop walks: the leaf
   check rides on the shape-id load every step makes anyway, and dead
   padding exits can put a leaf above the peel depth. *)
let fwalk_fn k kind (walk : Mir.walk_kind) : int -> float array -> int =
  match (kind, walk) with
  | Layout.Array_kind, Mir.Unrolled_walk { depth } ->
    fun base row -> fwalk_array_n k base row depth
  | Layout.Array_kind, (Mir.Loop_walk | Mir.Peeled_walk _) ->
    fun base row -> fwalk_array k base 0 row
  | Layout.Sparse_kind, Mir.Unrolled_walk { depth } ->
    fun root row -> fwalk_sparse_n k root row depth
  | Layout.Sparse_kind, (Mir.Loop_walk | Mir.Peeled_walk _) ->
    fun root row -> if root < 0 then -root - 1 else fwalk_sparse k root row

(* ------------------------------------------------------------------ *)
(* Narrow kernels (quantized fast path)                                *)
(* ------------------------------------------------------------------ *)

(* The quantized walk runs in the integer domain over the layout's
   materialized narrow buffers ({!Layout.narrow}): quantized rows are
   int arrays, thresholds and leaves load from int8/int16 Bigarrays,
   and per-class accumulators are ints. Routing replicates
   [Layout.comparison_bits] bit for bit — finite thresholds compare as
   the very integers the float-trick buffers store, +inf marker lanes
   come from the slot's constant [always] mask, and -inf lanes store
   the row minimum (constantly false, exactly like comparing against
   -inf). Integer adds are exact, so tree order is irrelevant and the
   final dequantize reproduces Lower.reference_qpredict — and hence
   Numeric.qpredict_raw — bitwise. Bigarray loads are single
   instructions only where the element kind is statically known, so the
   lane code exists per width; the width is matched once per step. *)

type nthr = N8 of Layout.narrow8 | N16 of Layout.narrow16

let[@inline] lane8 k t (q : int array) i =
  Bool.to_int (iget q (iget k.features i) < get8 t i)

let[@inline] lane16 k t (q : int array) i =
  Bool.to_int (iget q (iget k.features i) < get16 t i)

let[@inline] bits8 k t q i m =
  match m with
  | 8 ->
    (lane8 k t q i lsl 7)
    lor (lane8 k t q (i + 1) lsl 6)
    lor (lane8 k t q (i + 2) lsl 5)
    lor (lane8 k t q (i + 3) lsl 4)
    lor (lane8 k t q (i + 4) lsl 3)
    lor (lane8 k t q (i + 5) lsl 2)
    lor (lane8 k t q (i + 6) lsl 1)
    lor lane8 k t q (i + 7)
  | 4 ->
    (lane8 k t q i lsl 3)
    lor (lane8 k t q (i + 1) lsl 2)
    lor (lane8 k t q (i + 2) lsl 1)
    lor lane8 k t q (i + 3)
  | 2 -> (lane8 k t q i lsl 1) lor lane8 k t q (i + 1)
  | 1 -> lane8 k t q i
  | m ->
    let b = ref 0 in
    for l = 0 to m - 1 do
      b := (!b lsl 1) lor lane8 k t q (i + l)
    done;
    !b

let[@inline] bits16 k t q i m =
  match m with
  | 8 ->
    (lane16 k t q i lsl 7)
    lor (lane16 k t q (i + 1) lsl 6)
    lor (lane16 k t q (i + 2) lsl 5)
    lor (lane16 k t q (i + 3) lsl 4)
    lor (lane16 k t q (i + 4) lsl 3)
    lor (lane16 k t q (i + 5) lsl 2)
    lor (lane16 k t q (i + 6) lsl 1)
    lor lane16 k t q (i + 7)
  | 4 ->
    (lane16 k t q i lsl 3)
    lor (lane16 k t q (i + 1) lsl 2)
    lor (lane16 k t q (i + 2) lsl 1)
    lor lane16 k t q (i + 3)
  | 2 -> (lane16 k t q i lsl 1) lor lane16 k t q (i + 1)
  | 1 -> lane16 k t q i
  | m ->
    let b = ref 0 in
    for l = 0 to m - 1 do
      b := (!b lsl 1) lor lane16 k t q (i + l)
    done;
    !b

let[@inline] nchild (k : nthr kernel) s sid q =
  let i = s * k.nt in
  if k.direct then
    1 - ((match k.thr with N8 t -> lane8 k t q i | N16 t -> lane16 k t q i)
        lor iget k.always s)
  else
    let m = iget k.lanes sid in
    let bits = match k.thr with N8 t -> bits8 k t q i m | N16 t -> bits16 k t q i m in
    iget (rget k.lut sid) ((bits lsl (k.nt - m)) lor iget k.always s)

let[@inline] nleaf (k : nthr kernel) l =
  match k.leaves with N8 b -> get8 b l | N16 b -> get16 b l

(* The narrow mirror of the float walks and jams above. *)
let[@inline] nstep_array k s sid l q = (l * k.fanout) + nchild k s sid q + 1

let rec nwalk_array k base l q =
  let s = base + l in
  let sid = iget k.shape_ids s in
  if sid = leaf_marker then s * k.nt
  else nwalk_array k base (nstep_array k s sid l q) q

let[@inline] nstep_sparse k s q = sparse_next k s (nchild k s (iget k.shape_ids s) q)

let rec nwalk_sparse k s q =
  let next = nstep_sparse k s q in
  if next >= 0 then nwalk_sparse k next q else -next - 1

let nwalk_array_n k base q n =
  let l = ref 0 in
  for _ = 1 to n do
    let s = base + !l in
    let sid = iget k.shape_ids s in
    if sid <> leaf_marker then l := nstep_array k s sid !l q
  done;
  (base + !l) * k.nt

let nwalk_sparse_n k root q n =
  let s = ref root in
  for _ = 1 to n do
    if !s >= 0 then s := nstep_sparse k !s q
  done;
  - !s - 1

let njam_array k base (qrows : int array array) i0 count (cur : int array) n =
  for j = 0 to count - 1 do
    cur.(j) <- 0
  done;
  let steps = ref 0 and moving = ref true in
  while !moving && !steps < n do
    moving := false;
    incr steps;
    for j = 0 to count - 1 do
      let l = cur.(j) in
      let s = base + l in
      let sid = iget k.shape_ids s in
      if sid <> leaf_marker then begin
        cur.(j) <- nstep_array k s sid l qrows.(i0 + j);
        moving := true
      end
    done
  done;
  for j = 0 to count - 1 do
    cur.(j) <- (base + cur.(j)) * k.nt
  done

let njam_sparse k root (qrows : int array array) i0 count (cur : int array) n =
  for j = 0 to count - 1 do
    cur.(j) <- root
  done;
  let steps = ref 0 and moving = ref true in
  while !moving && !steps < n do
    moving := false;
    incr steps;
    for j = 0 to count - 1 do
      let s = cur.(j) in
      if s >= 0 then begin
        cur.(j) <- nstep_sparse k s qrows.(i0 + j);
        moving := true
      end
    done
  done;
  for j = 0 to count - 1 do
    cur.(j) <- -cur.(j) - 1
  done

let nwalk_fn k kind (walk : Mir.walk_kind) : int -> int array -> int =
  match (kind, walk) with
  | Layout.Array_kind, Mir.Unrolled_walk { depth } ->
    fun base q -> nwalk_array_n k base q depth
  | Layout.Array_kind, (Mir.Loop_walk | Mir.Peeled_walk _) ->
    fun base q -> nwalk_array k base 0 q
  | Layout.Sparse_kind, Mir.Unrolled_walk { depth } ->
    fun root q -> nwalk_sparse_n k root q depth
  | Layout.Sparse_kind, (Mir.Loop_walk | Mir.Peeled_walk _) ->
    fun root q -> if root < 0 then -root - 1 else nwalk_sparse k root q

(* ------------------------------------------------------------------ *)
(* Resident-prefix walkers (quantized fast path)                       *)
(* ------------------------------------------------------------------ *)

let never_taken : int array -> int =
 fun _ -> invalid_arg "Jit: resident dispatch reached an unreachable child"

(* The top [k] tile levels of one tree become a closure tree with the
   lane feature ids, integer thresholds and LUT row baked in as
   immediates — no buffer loads until the walk leaves the resident
   prefix, where control falls through to [tail] (the narrow
   memory-phase walk from that cursor; array-kind cursors are slab
   locals, sparse cursors the slot-or-negative-leaf encoding).
   Thresholds bake exactly like {!Layout.narrow} encodes them (+inf
   lanes as a constant OR-mask, -inf as a never-true sentinel), so the
   prefix depth cannot change any prediction. *)
let resident_walker (lay : Layout.t) ~k tree ~(tail : int -> int array -> int)
    ~(leaf_get : int -> int) =
  let nt = lay.Layout.tile_size in
  let bake s (children : (int array -> int) array) =
    let lut_row = lay.Layout.lut.(lay.Layout.shape_ids.(s)) in
    let feats = Array.init nt (fun l -> lay.Layout.features.((s * nt) + l)) in
    let always = ref 0 in
    let thrs =
      Array.init nt (fun l ->
          let x = lay.Layout.thresholds.((s * nt) + l) in
          if x = infinity then begin
            always := !always lor (1 lsl (nt - 1 - l));
            min_int
          end
          else if x = neg_infinity then min_int
          else int_of_float x)
    in
    let always = !always in
    fun (qrow : int array) ->
      let bits = ref always in
      for l = 0 to nt - 1 do
        let b = if qrow.(feats.(l)) < thrs.(l) then 1 else 0 in
        bits := !bits lor (b lsl (nt - 1 - l))
      done;
      children.(lut_row.(!bits)) qrow
  in
  match lay.Layout.kind with
  | Layout.Array_kind ->
    let fanout = nt + 1 in
    let base = lay.Layout.tree_root.(tree) in
    let rec build local level =
      let s = base + local in
      if level >= k || lay.Layout.shape_ids.(s) < 0 then tail local
      else begin
        let reach = Layout.reachable_children lay lay.Layout.shape_ids.(s) in
        let children =
          Array.init fanout (fun c ->
              if List.mem c reach then build ((local * fanout) + c + 1) (level + 1)
              else never_taken)
        in
        bake s children
      end
    in
    build 0 0
  | Layout.Sparse_kind ->
    let root = lay.Layout.tree_root.(tree) in
    let rec build s level =
      if level >= k then tail s
      else begin
        let p = lay.Layout.child_ptr.(s) in
        let reach = Layout.reachable_children lay lay.Layout.shape_ids.(s) in
        let children =
          Array.init (nt + 1) (fun c ->
              if not (List.mem c reach) then never_taken
              else if p >= 0 then build (p + c) (level + 1)
              else begin
                let v = leaf_get (-p - 1 + c) in
                fun _ -> v
              end)
        in
        bake s children
      end
    in
    if root < 0 then begin
      let v = leaf_get (-root - 1) in
      fun _ -> v
    end
    else build root 0

(* ------------------------------------------------------------------ *)
(* Drivers                                                             *)
(* ------------------------------------------------------------------ *)

(* Jams take their steps bound from the walk kind: the unrolled depth,
   or no bound for loop walks (every walk ends within its tree's walk
   depth, and the jam stops once no cursor moves). *)
let jam_steps (g : Pack.group) =
  match g.Pack.walk with
  | Mir.Unrolled_walk { depth } -> depth
  | Mir.Loop_walk | Mir.Peeled_walk _ -> max_int

let max_interleave (pk : Pack.t) =
  Array.fold_left (fun m (g : Pack.group) -> max m g.Pack.interleave) 1 pk.Pack.groups

(* Float predictions for rows[lo..hi) accumulated into out (same
   indexing), in the schedule's loop order. Per tree and row the
   contribution is added exactly once, in group order, so every loop
   order, jam factor and walk kind sums in the same order. The jam
   cursors are scratch of this call (one per domain); a one-row range
   skips the jam, which for one row is the single walk. *)
let frun (pk : Pack.t) (k : float array kernel) =
  let lay = pk.Pack.layout in
  let kind = lay.Layout.kind and roots = lay.Layout.tree_root in
  let groups = pk.Pack.groups and tree_class = pk.Pack.tree_class in
  let walks = Array.map (fun (g : Pack.group) -> fwalk_fn k kind g.Pack.walk) groups in
  let leaves = k.leaves and il_max = max_interleave pk in
  fun (rows : float array array) (out : float array array) lo hi ->
    match pk.Pack.loop_order with
    | Schedule.One_tree_at_a_time ->
      let cur = Array.make il_max 0 in
      for gi = 0 to Array.length groups - 1 do
        let g = groups.(gi) in
        let walk = walks.(gi) and il = g.Pack.interleave and n = jam_steps g in
        let positions = g.Pack.positions in
        for p = 0 to Array.length positions - 1 do
          let tree = positions.(p) in
          let cls = tree_class.(tree) and root = roots.(tree) in
          if il <= 1 || hi - lo < 2 then
            for i = lo to hi - 1 do
              let o = out.(i) in
              o.(cls) <- o.(cls) +. fget leaves (walk root rows.(i))
            done
          else begin
            let i = ref lo in
            while !i < hi do
              let i0 = !i in
              let count = min il (hi - i0) in
              (match kind with
              | Layout.Array_kind -> fjam_array k root rows i0 count cur n
              | Layout.Sparse_kind -> fjam_sparse k root rows i0 count cur n);
              for j = 0 to count - 1 do
                let o = out.(i0 + j) in
                o.(cls) <- o.(cls) +. fget leaves cur.(j)
              done;
              i := i0 + count
            done
          end
        done
      done
    | Schedule.One_row_at_a_time ->
      (* Innermost loop over a group's trees. Tree-jamming on one row is
         a scheduling decision the profiler models; walks of distinct
         trees are independent, so here they run back to back. *)
      for i = lo to hi - 1 do
        let row = rows.(i) and o = out.(i) in
        for gi = 0 to Array.length groups - 1 do
          let walk = walks.(gi) and positions = groups.(gi).Pack.positions in
          for p = 0 to Array.length positions - 1 do
            let tree = positions.(p) in
            let cls = tree_class.(tree) in
            o.(cls) <- o.(cls) +. fget leaves (walk roots.(tree) row)
          done
        done
      done

(* The quantized runner: like [frun] over int rows and accumulators.
   Memory-only trees (resident k = 0) honor their group's walk kind and
   interleave; resident trees bake the prefix and fall through to the
   narrow loop walk from the exit cursor. The schedule's loop order is
   deliberately ignored: integer adds are exact, so tree-at-a-time — the
   cache-friendliest order — is always bitwise-identical. *)
let nrun (pk : Pack.t) (k : nthr kernel) ~resident_k =
  let lay = pk.Pack.layout in
  let kind = lay.Layout.kind and roots = lay.Layout.tree_root in
  let tree_class = pk.Pack.tree_class in
  let resident =
    if resident_k <= 0 then None
    else
      let tail tree =
        match kind with
        | Layout.Array_kind ->
          let base = roots.(tree) in
          fun l q -> nleaf k (nwalk_array k base l q)
        | Layout.Sparse_kind ->
          fun s q -> nleaf k (if s < 0 then -s - 1 else nwalk_sparse k s q)
      in
      let leaf_get i =
        match k.leaves with
        | N8 b -> Bigarray.Array1.get b i
        | N16 b -> Bigarray.Array1.get b i
      in
      Some
        (Array.init lay.Layout.num_trees (fun tree ->
             resident_walker lay ~k:resident_k tree ~tail:(tail tree) ~leaf_get))
  in
  let groups = pk.Pack.groups in
  let walks = Array.map (fun (g : Pack.group) -> nwalk_fn k kind g.Pack.walk) groups in
  let il_max = max_interleave pk in
  fun (qrows : int array array) (acc : int array array) lo hi ->
    let cur = Array.make il_max 0 in
    for gi = 0 to Array.length groups - 1 do
      let g = groups.(gi) in
      let walk = walks.(gi) and il = g.Pack.interleave and n = jam_steps g in
      let positions = g.Pack.positions in
      for p = 0 to Array.length positions - 1 do
        let tree = positions.(p) in
        let cls = tree_class.(tree) and root = roots.(tree) in
        match resident with
        | Some walkers ->
          let w = walkers.(tree) in
          for i = lo to hi - 1 do
            let a = acc.(i) in
            a.(cls) <- a.(cls) + w qrows.(i)
          done
        | None when il <= 1 || hi - lo < 2 ->
          for i = lo to hi - 1 do
            let a = acc.(i) in
            a.(cls) <- a.(cls) + nleaf k (walk root qrows.(i))
          done
        | None ->
          let i = ref lo in
          while !i < hi do
            let i0 = !i in
            let count = min il (hi - i0) in
            (match kind with
            | Layout.Array_kind -> njam_array k root qrows i0 count cur n
            | Layout.Sparse_kind -> njam_sparse k root qrows i0 count cur n);
            for j = 0 to count - 1 do
              let a = acc.(i0 + j) in
              a.(cls) <- a.(cls) + nleaf k cur.(j)
            done;
            i := i0 + count
          done
      done
    done

(* Tile the row loop by thread count (§IV-C); each domain owns a
   contiguous block of rows (Mir.row_partition, statically checked
   disjoint by the analysis), so no synchronization is needed. *)
let parallel_run ~threads run rows out =
  let n = Array.length rows in
  if threads <= 1 then run rows out 0 n
  else
    let domains =
      Array.to_list (Mir.row_partition ~num_threads:threads ~batch:n)
      |> List.map (fun (lo, hi) ->
             if lo >= hi then None
             else Some (Domain.spawn (fun () -> run rows out lo hi)))
    in
    List.iter (function Some d -> Domain.join d | None -> ()) domains

let instantiate_with ~threads (pk : Pack.t) =
  let width =
    match Pack.walkable pk with
    | Ok w -> w
    | Error e -> invalid_arg ("Jit.instantiate: pack is not walkable: " ^ e.Pack.message)
  in
  (* The boundary half of the invariant: one pass per batch, before any
     kernel reads a row. *)
  let check_widths (rows : float array array) =
    for i = 0 to Array.length rows - 1 do
      let w = Array.length rows.(i) in
      if w < width then
        invalid_arg
          (Printf.sprintf "Jit: row %d has %d features; this predictor reads %d" i w
             width)
    done
  in
  let lay = pk.Pack.layout in
  let nout = pk.Pack.num_outputs in
  match lay.Layout.quant with
  | None ->
    let leaves =
      match lay.Layout.kind with
      | Layout.Array_kind -> lay.Layout.thresholds
      | Layout.Sparse_kind -> lay.Layout.leaf_values
    in
    let run = frun pk (kernel lay ~thr:lay.Layout.thresholds ~leaves ~always:[||]) in
    fun rows ->
      check_widths rows;
      let out = Array.init (Array.length rows) (fun _ -> Array.make nout pk.Pack.base_score) in
      parallel_run ~threads run rows out;
      out
  | Some q ->
    (* Integer fast path: quantize the batch into int rows once, walk
       the narrow buffers (with the resident prefix baked when k > 0)
       accumulating int sums from the quantized base score, then
       dequantize exactly. Must equal Lower.reference_qpredict — and
       hence Numeric.qpredict_raw — bit for bit: routing matches the
       float-trick buffers comparison for comparison, and both sides'
       sums are the same integers far below 2^53. *)
    let resident_k =
      match pk.Pack.quant with Some m -> m.Pack.resident_k | None -> 0
    in
    let sparse = lay.Layout.kind = Layout.Sparse_kind in
    let k =
      match Layout.narrow lay with
      | Layout.Narrow8 { thr; leaves; always } ->
        kernel lay ~thr:(N8 thr) ~leaves:(N8 (if sparse then leaves else thr)) ~always
      | Layout.Narrow16 { thr; leaves; always } ->
        kernel lay ~thr:(N16 thr) ~leaves:(N16 (if sparse then leaves else thr)) ~always
    in
    let run = nrun pk k ~resident_k in
    let quantize_row = Layout.row_quantizer q in
    let qbase = Layout.quantize_leaf_int q pk.Pack.base_score in
    let scale = Layout.dequant_scale q in
    fun rows ->
      check_widths rows;
      let qrows = Array.map quantize_row rows in
      let acc = Array.init (Array.length rows) (fun _ -> Array.make nout qbase) in
      parallel_run ~threads run qrows acc;
      Array.map
        (fun a ->
          let o = Array.create_float nout in
          for c = 0 to nout - 1 do
            o.(c) <- float_of_int a.(c) *. scale
          done;
          o)
        acc

let instantiate_single_thread (pk : Pack.t) = instantiate_with ~threads:1 pk
let instantiate (pk : Pack.t) = instantiate_with ~threads:pk.Pack.num_threads pk

let compile_single_thread (lp : Lower.t) = instantiate_single_thread (Pack.of_lower lp)
let compile (lp : Lower.t) = instantiate (Pack.of_lower lp)

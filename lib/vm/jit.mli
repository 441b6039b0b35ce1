(** The execution backend: compiles a lowered program into specialized
    OCaml closures (this repository's stand-in for the paper's LLVM JIT).

    The generated predictor honours every schedule decision:
    - loop order (one-tree-at-a-time vs one-row-at-a-time);
    - walk specialization (generic loop / peeled prologue / fully unrolled
      fixed-depth walks with no termination checks);
    - tree-walk interleaving (k cursors advanced in lockstep);
    - memory layout (array vs sparse buffer navigation);
    - row-loop parallelization over OCaml domains.

    Semantics contract (tested): for every schedule, the predictor's output
    equals {!Tb_model.Forest.predict_batch_raw} on the source forest.

    The walk kernels read layout buffers, LUT rows and row features
    without bounds checks. That rests on two checks (DESIGN.md §15):
    instantiation refuses a pack that is not {!Tb_lir.Pack.walkable},
    and every call checks its batch's row widths before any kernel
    runs. *)

type predictor = float array array -> float array array
(** Batch inference: one margin vector per input row. An empty batch
    returns [[||]]. A row may be wider than the model; a row narrower
    than the layout reads (the width {!Tb_lir.Pack.walkable} returns)
    raises [Invalid_argument "Jit: row i has w features; this predictor
    reads r"] for the first such row, before any row is walked. A call
    allocates its outputs (and, on the integer path, its quantized rows)
    and nothing per tree walk. *)

val instantiate : Tb_lir.Pack.t -> predictor
(** Closure instantiation: build the specialized predictor from a packed
    artifact — the cheap half of a compile, run on registry disk hits. The
    closure graph is constructed once here; calling the predictor performs
    no per-call compilation work.
    @raise Invalid_argument when the pack is not
    {!Tb_lir.Pack.walkable}. *)

val instantiate_single_thread : Tb_lir.Pack.t -> predictor
(** Same, ignoring the artifact's thread count (used by benchmarks that
    sweep thread counts externally). *)

val compile : Tb_lir.Lower.t -> predictor
(** [instantiate] of {!Tb_lir.Pack.of_lower} — artifact construction plus
    closure instantiation in one step. *)

val compile_single_thread : Tb_lir.Lower.t -> predictor
(** Single-threaded {!compile}. *)

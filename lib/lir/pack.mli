(** Packed predictor artifacts: the serializable half of a compile.

    A {!t} is everything {!Tb_vm.Jit} needs to build a predictor — the
    {!Layout} buffers, the MIR walk plan (loop order, per-group walk kind /
    interleave / tree positions), per-tree aggregation classes and the
    verified {!Reg_ir} walk programs — plus compile-time metadata (model
    name, canonical schedule, CPU target, the deterministic modeled
    service time). It deliberately does {e not} carry the HIR or MIR: a
    pack is the {e result} of lowering, so rehydrating one is a bounded
    [Bytes] decode followed by closure construction, never a recompile.

    The wire format (see DESIGN.md §11) is a 16-byte header — magic
    ["TBPK"], format version, payload length, CRC32 — followed by
    length-prefixed blocks in traversal order (metadata, walk plan, tree
    tables, layout buffers in the order a walk touches them, register
    programs). Floats are stored as their IEEE-754 bit patterns, so a
    decoded artifact's predictions are bitwise-equal to the compiler's.

    Decoding is total: every failure — wrong magic ([A001]), unsupported
    version ([A002]), checksum mismatch ([A003]), truncation or a
    malformed/inconsistent body ([A004]) — is returned as a structured
    {!error}, never an exception, so callers (the {!Tb_serve.Registry}
    disk tier) can fall back to a fresh compile. *)

type group = {
  positions : int array;
      (** layout tree indices this group walks, in execution order *)
  walk : Tb_mir.Mir.walk_kind;
  interleave : int;  (** jam factor; 1 = no interleaving *)
}

type meta = {
  model : string;
  target : string;  (** CPU target name the artifact was compiled for *)
  schedule : Tb_hir.Schedule.t;
      (** the exact (normalized) schedule that was lowered *)
  us_per_row : float;
      (** deterministic modeled service time per row, {e uncalibrated}
          ({!Tb_core.Perf.simulate} at pack time); 0 when unknown *)
}

type quant = {
  resident_k : int;
      (** autotuned resident-prefix depth the artifact was compiled for
          (0 = pure memory-phase walks) *)
  dev_bound : float array;
      (** per output class: the certificate's proved N003 deviation bound
          between quantized and float predictions *)
  tolerance : float;  (** the tolerance the certificate was checked against *)
}
(** Integer-fast-path metadata. Present exactly when [layout.quant] is
    — the pack carries the serving-side record of {e which} precision
    tier it implements and what accuracy was proved for it. The
    fixed-point spec itself ({!Layout.qspec}) is serialized alongside
    and rehydrated into the layout. *)

type t = {
  meta : meta;
  loop_order : Tb_hir.Schedule.loop_order;
  num_threads : int;
  num_outputs : int;
  base_score : float;
  tree_class : int array;  (** per layout tree: output class *)
  walk_depth : int array;  (** per layout tree: max tiled walk depth *)
  groups : group array;
  layout : Layout.t;
  programs : Reg_ir.walk_program array;
      (** per group: the verified single-lane register-IR walk body *)
  quant : quant option;
      (** [Some _] iff the layout is quantized (enforced by
          {!of_lower}/[validate]) *)
}

val of_lower :
  ?model:string ->
  ?target:string ->
  ?us_per_row:float ->
  ?quant:quant ->
  Lower.t ->
  t
(** Artifact construction: project a lowered program onto its packable
    form (drop the HIR/MIR, keep the execution plan) and generate the
    per-group register programs ({!Reg_codegen.all_variants}).
    [?quant] must be given exactly when the lowered layout is quantized.
    @raise Invalid_argument when the quant metadata and the layout
    disagree about the precision tier. *)

val format_version : int
(** Current wire-format version. Bump on any incompatible layout change —
    the golden-artifact byte-stability test fails loudly otherwise. *)

val magic : string
(** The 4-byte artifact magic, ["TBPK"]. *)

type error = { code : string; message : string }
(** Structured decode failure; [code] is one of ["A001"].."A004"] (see
    {!Tb_diag.Diagnostic}'s registry). *)

val error_to_diagnostic : error -> Tb_diag.Diagnostic.t

val encode : t -> bytes
(** Serialize. Deterministic: equal packs encode to equal bytes. *)

val decode : bytes -> (t, error) result
(** Total inverse of {!encode}: validates magic, version, length and
    checksum before touching the payload, then structurally validates the
    decoded pack (layout buffer lengths against slot count and kind,
    {!walkable}, group/program consistency, at most one output per tree,
    {!Reg_ir.check} register discipline on every walk program). Never
    raises. *)

val walkable : t -> (int, error) result
(** The walkability invariant the JIT's unchecked loads rest on
    (DESIGN.md §15), checked in one pass linear in the layout whatever
    its contents: from every tree root, every child any LUT row can
    select is inside its buffer (array walks inside the tree's slab and
    never on an unused slot; sparse walks on tile slots entered once,
    and leaf indices inside the leaf store); LUT entries lie in
    [[0, tile_size]]; every walk ends on a leaf within the tree's
    [walk_depth], and an unrolled group's deepest leaf sits at exactly
    its unrolled depth (shallower leaves are allowed: a padding tile's
    dead exit is taken by NaN and +inf features); and every lane reads
    a feature in [[0, width)], where a quantized layout's
    width is its feature-exponent count. A peeled group's peel depth is
    not checked: the kernels test for leaves at every step. [Ok w] is
    the row width a predictor must be fed. {!decode} runs it (failures
    are [A004]) and so does {!Tb_vm.Jit.instantiate}. *)

val equal : t -> t -> bool
(** Structural equality, with floats compared bitwise (NaN-safe) — the
    round-trip property [decode (encode p) = Ok p] is tested with this. *)

val crc32 : bytes -> pos:int -> len:int -> int32
(** The checksum used by the format (IEEE 802.3 polynomial, reflected) —
    exposed for tests that craft adversarial artifacts. *)

val size_bytes : t -> int
(** Encoded size in bytes (header + all blocks); encodes internally. *)

(* Span recorder for the traced run.

   A span wraps one call into a layer's public function. Spans nest: the
   innermost open span is the parent of the next one, and every span of
   one operation (a batch, a request, a restart, a replay) carries the id
   of that operation's root span. Self time — a span's duration minus
   the time its child spans cover — is computed when the span closes.

   Everything stays in memory until {!write}: per-name aggregates of
   every span (the per-layer metrics are computed from these), plus the
   first [max_records] spans verbatim for inspection. When tracing is off,
   {!span} is a plain call. *)

(* Monotonic clock, seconds; nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type frame = {
  f_name : string;
  f_id : int;
  f_parent : int;
  f_op : int;
  f_layer : bool;
  f_start : float;
  mutable f_child : float;
}

type record = {
  name : string;
  id : int;
  parent : int;
  op : int;
  start : float;  (** seconds since the recorder was reset *)
  dur : float;
  self : float;
}

type agg = {
  durs : Sample.t;  (** every closed span's duration, seconds *)
  mutable self_total : float;
}

let max_records = 50_000
let enabled = ref false
let epoch = ref (now ())
let next_id = ref 0
let stack : frame list ref = ref []
let records : record list ref = ref []
let num_records = ref 0
let aggs : (string, agg) Hashtbl.t = Hashtbl.create 64
let counters : (string, float ref) Hashtbl.t = Hashtbl.create 16

(* Σ self time of layer spans: the numerator of trace.coverage. Root and
   composite spans are bookkeeping, not layers, and stay out of it. *)
let layer_self = ref 0.0

let reset () =
  epoch := now ();
  next_id := 0;
  stack := [];
  records := [];
  num_records := 0;
  Hashtbl.reset aggs;
  Hashtbl.reset counters;
  layer_self := 0.0

let agg name =
  match Hashtbl.find_opt aggs name with
  | Some a -> a
  | None ->
    let a = { durs = Sample.create (); self_total = 0.0 } in
    Hashtbl.add aggs name a;
    a

let close fr =
  let t1 = now () in
  stack := (match !stack with _ :: rest -> rest | [] -> []);
  let dur = t1 -. fr.f_start in
  let self = dur -. fr.f_child in
  (match !stack with p :: _ -> p.f_child <- p.f_child +. dur | [] -> ());
  let a = agg fr.f_name in
  Sample.add a.durs dur;
  a.self_total <- a.self_total +. self;
  if fr.f_layer then layer_self := !layer_self +. self;
  if !num_records < max_records then begin
    incr num_records;
    records :=
      {
        name = fr.f_name;
        id = fr.f_id;
        parent = fr.f_parent;
        op = fr.f_op;
        start = fr.f_start -. !epoch;
        dur;
        self;
      }
      :: !records
  end

(* [span name f] runs [f ()] inside a span. [~layer:false] marks a root
   or composite span, whose time the layer spans are meant to account
   for. *)
let span ?(layer = true) name f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent, op = match !stack with p :: _ -> (p.f_id, p.f_op) | [] -> (0, id) in
    let fr =
      {
        f_name = name;
        f_id = id;
        f_parent = parent;
        f_op = op;
        f_layer = layer;
        f_start = now ();
        f_child = 0.0;
      }
    in
    stack := fr :: !stack;
    match f () with
    | v ->
      close fr;
      v
    | exception e ->
      close fr;
      raise e
  end

let count name n =
  if !enabled then
    match Hashtbl.find_opt counters name with
    | Some r -> r := !r +. n
    | None -> Hashtbl.add counters name (ref n)

(* Accessors over the aggregates; absent names read as no time. *)
let self_s name =
  match Hashtbl.find_opt aggs name with Some a -> a.self_total | None -> 0.0

let durations name =
  match Hashtbl.find_opt aggs name with
  | Some a -> a.durs
  | None -> Sample.create ()

let counter name =
  match Hashtbl.find_opt counters name with Some r -> !r | None -> 0.0

let layer_self_s () = !layer_self

(* Write every retained span and the aggregates as one JSON document. *)
let write path ~meta =
  let b = Buffer.create (1 lsl 20) in
  let num x = if Float.is_finite x then Printf.sprintf "%.9g" x else "null" in
  Buffer.add_string b "{\n\"meta\": {";
  List.iteri
    (fun i (k, v) ->
      Printf.bprintf b "%s%S: %S" (if i > 0 then ", " else "") k v)
    meta;
  Buffer.add_string b "},\n\"aggregates\": {";
  let names = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) aggs []) in
  List.iteri
    (fun i name ->
      let a = Hashtbl.find aggs name in
      Printf.bprintf b
        "%s\n  %S: {\"calls\": %d, \"total_s\": %s, \"self_s\": %s}"
        (if i > 0 then "," else "")
        name (Sample.length a.durs)
        (num (Sample.sum a.durs))
        (num a.self_total))
    names;
  Buffer.add_string b "\n},\n\"counters\": {";
  let cnames =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) counters [])
  in
  List.iteri
    (fun i name ->
      Printf.bprintf b "%s%S: %s" (if i > 0 then ", " else "") name
        (num !(Hashtbl.find counters name)))
    cnames;
  Printf.bprintf b "},\n\"spans_retained\": %d,\n\"spans\": [" !num_records;
  List.iteri
    (fun i r ->
      Printf.bprintf b
        "%s\n  {\"name\": %S, \"id\": %d, \"parent\": %d, \"op\": %d, \
         \"start_us\": %s, \"dur_us\": %s, \"self_us\": %s}"
        (if i > 0 then "," else "")
        r.name r.id r.parent r.op (num (r.start *. 1e6)) (num (r.dur *. 1e6))
        (num (r.self *. 1e6)))
    (List.rev !records);
  Buffer.add_string b "\n]\n}\n";
  let oc = open_out_bin path in
  Buffer.output_buffer oc b;
  close_out oc

(* Self time per span name as of now, for splitting a run into phases. *)
let snapshot () =
  let copy = Hashtbl.create 64 in
  Hashtbl.iter (fun k a -> Hashtbl.replace copy k a.self_total) aggs;
  fun name -> match Hashtbl.find_opt copy name with Some s -> s | None -> 0.0

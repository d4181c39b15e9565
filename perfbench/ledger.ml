(* The span ledger: per-layer self time measured from outside.

   Every call the benchmark makes into a layer is bracketed by
   [let t0 = Ledger.now () in ... ; Ledger.close layer t0].  With tracing
   off [close] only returns; with tracing on it appends the span to flat
   arrays.  GC work is attributed to its own layer, [runtime]: the OCaml
   runtime reports its collection phases through [Runtime_events] with
   CLOCK_MONOTONIC timestamps (the same clock as {!now}), and at the end of
   a repetition the GC intervals of the main domain are intersected with
   the spans, so a layer's self time excludes the collections that happened
   inside its calls. *)

type layer =
  | Topology
  | Idspace
  | Core
  | Linkstate
  | Intra
  | Inter
  | Dataplane
  | Proto
  | Netsim
  | Crypto
  | Services
  | Asgraph
  | Workload

let layers =
  [ Topology; Idspace; Core; Linkstate; Intra; Inter; Dataplane; Proto; Netsim;
    Crypto; Services; Asgraph; Workload ]

let layer_index = function
  | Topology -> 0
  | Idspace -> 1
  | Core -> 2
  | Linkstate -> 3
  | Intra -> 4
  | Inter -> 5
  | Dataplane -> 6
  | Proto -> 7
  | Netsim -> 8
  | Crypto -> 9
  | Services -> 10
  | Asgraph -> 11
  | Workload -> 12

let layer_name = function
  | Topology -> "topology"
  | Idspace -> "idspace"
  | Core -> "core"
  | Linkstate -> "linkstate"
  | Intra -> "intra"
  | Inter -> "inter"
  | Dataplane -> "dataplane"
  | Proto -> "proto"
  | Netsim -> "netsim"
  | Crypto -> "crypto"
  | Services -> "services"
  | Asgraph -> "asgraph"
  | Workload -> "workload"

let n_layers = List.length layers

(* Nanoseconds on CLOCK_MONOTONIC; allocation-free. *)
let now () = Int64.to_int (Monotonic_clock.now ())

let secs ns = float_of_int ns *. 1e-9

(* ---- spans ---------------------------------------------------------------- *)

let tracing = ref false
let cap = ref 0
let n_spans = ref 0
let span_start = ref [||]
let span_stop = ref [||]
let span_layer = ref [||]

let grow () =
  let c = max 4096 (2 * !cap) in
  let extend a = Array.append a (Array.make (c - !cap) 0) in
  span_start := extend !span_start;
  span_stop := extend !span_stop;
  span_layer := extend !span_layer;
  cap := c

(* ---- GC intervals from Runtime_events --------------------------------------- *)

let gc_start = ref [||]
let gc_stop = ref [||]
let n_gc = ref 0
let gc_cap = ref 0
let gc_depth = ref 0
let gc_open = ref 0
let gc_lost = ref 0
let cursor = ref None

let push_gc a b =
  if !n_gc = !gc_cap then begin
    let c = max 1024 (2 * !gc_cap) in
    gc_start := Array.append !gc_start (Array.make (c - !gc_cap) 0);
    gc_stop := Array.append !gc_stop (Array.make (c - !gc_cap) 0);
    gc_cap := c
  end;
  !gc_start.(!n_gc) <- a;
  !gc_stop.(!n_gc) <- b;
  incr n_gc

(* Waiting on a condition variable is idleness, not collection work. *)
let counts_as_gc = function
  | Runtime_events.EV_DOMAIN_CONDITION_WAIT -> false
  | _ -> true

let callbacks =
  let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t) in
  let runtime_begin ring t phase =
    if ring = 0 && counts_as_gc phase then begin
      if !gc_depth = 0 then gc_open := ts t;
      incr gc_depth
    end
  in
  let runtime_end ring t phase =
    if ring = 0 && counts_as_gc phase && !gc_depth > 0 then begin
      decr gc_depth;
      if !gc_depth = 0 then push_gc !gc_open (ts t)
    end
  in
  let lost_events ring n =
    if ring = 0 then begin
      gc_lost := !gc_lost + n;
      gc_depth := 0
    end
  in
  Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ()

let poll () =
  match !cursor with
  | None -> ()
  | Some c -> ignore (Runtime_events.read_poll c callbacks None)

let started = ref false

(* Turn tracing on or off for the next repetition.  Runtime events are
   started once per process and paused while tracing is off. *)
let set_tracing on =
  if on && not !started then begin
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None);
    started := true
  end
  else if !started then begin
    if on then Runtime_events.resume () else Runtime_events.pause ()
  end;
  tracing := on

let reset () =
  n_spans := 0;
  poll ();
  n_gc := 0;
  gc_depth := 0;
  gc_lost := 0

let close layer t0 =
  if !tracing then begin
    let t1 = now () in
    if !n_spans = !cap then grow ();
    let i = !n_spans in
    !span_start.(i) <- t0;
    !span_stop.(i) <- t1;
    !span_layer.(i) <- layer_index layer;
    n_spans := i + 1;
    if i land 255 = 255 then poll ()
  end

(* ---- the per-repetition account ------------------------------------------- *)

type account = {
  self_s : float array;  (** per layer, GC excluded, indexed by [layer_index] *)
  runtime_s : float;     (** main-domain GC time inside the phase *)
  spans : int;
  gc_lost_events : int;
}

let overlap a0 a1 b0 b1 = max 0 (min a1 b1 - max a0 b0)

(* Self time per layer over the phase [p0, p1] (set-up spans are left
   out): spans are sequential (the benchmark calls one layer at a time) and
   GC intervals are sorted, so one merge-style sweep charges each GC
   interval to the span it overlaps. *)
let account ~p0 ~p1 =
  poll ();
  let self = Array.make n_layers 0 in
  let gs = !gc_start and ge = !gc_stop in
  let g = ref 0 in
  let spans = ref 0 in
  let charge s0 s1 l =
    incr spans;
    while !g < !n_gc && ge.(!g) <= s0 do incr g done;
    let gc_in = ref 0 in
    let k = ref !g in
    while !k < !n_gc && gs.(!k) < s1 do
      gc_in := !gc_in + overlap s0 s1 gs.(!k) ge.(!k);
      incr k
    done;
    self.(l) <- self.(l) + (s1 - s0 - !gc_in)
  in
  for i = 0 to !n_spans - 1 do
    let s0 = !span_start.(i) and s1 = !span_stop.(i) in
    if s0 >= p0 && s1 <= p1 then charge s0 s1 !span_layer.(i)
  done;
  let runtime = ref 0 in
  for k = 0 to !n_gc - 1 do
    runtime := !runtime + overlap p0 p1 gs.(k) ge.(k)
  done;
  {
    self_s = Array.map secs self;
    runtime_s = secs !runtime;
    spans = !spans;
    gc_lost_events = !gc_lost;
  }

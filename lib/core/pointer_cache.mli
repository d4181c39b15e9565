(** Bounded pointer caches with greedy best-match lookup.

    "Whenever a source route is established, the routers along the path can
    cache the route. […] The pointer-cache of routers is limited in size, and
    precedence is given to pointers in the [ring-state] class" (§2.2).  This
    cache stores the {e cached} class: ring state lives in vnodes and is
    never evicted.

    Layout: one flat in-place structure.  Entries sit in stable slots
    (parallel identifier and pointer arrays); recency is an intrusive
    doubly-linked list over slot indices, most recently used first, with
    freed slots on a free stack; ring order is a sorted array of
    {!Rofl_idspace.Id.key}s with a parallel slot array, binary-searched with
    an {!Rofl_idspace.Id.compare} tie-break.  Inserts and removals shift the
    sorted arrays in place.  Arrays grow geometrically up to the capacity,
    never preallocated to it.  [insert], [find], [best_match], [remove],
    [mem] and every {!Cursor} read allocate nothing apart from that
    amortised growth.

    Lookups answer with a {!Cursor.t}, a position in the ring order read
    back with {!Cursor.value_at}.  A cursor is valid until the next
    [insert], [remove], [drop_if], [clear] or [resize]; recency touches
    ([find], [best_match]) leave cursors valid. *)

type t

module Cursor : sig
  type cache := t

  type t = private int
  (** A position in the cache's ring order.  Negative means "no
      position". *)

  val none : t

  val is_none : t -> bool

  val equal : t -> t -> bool

  val find : cache -> Rofl_idspace.Id.t -> t
  (** The exact entry, or {!none}.  Does not touch recency. *)

  val lt : cache -> Rofl_idspace.Id.t -> t
  (** The first entry strictly counter-clockwise of the identifier in
      linear order, wrapping to the maximum; {!none} iff the cache is empty.
      Mirrors {!Rofl_idspace.Ring.cursor_lt}. *)

  val prev : cache -> t -> t
  (** The next entry counter-clockwise, wrapping from the minimum to the
      maximum. *)

  val id_at : cache -> t -> Rofl_idspace.Id.t

  val value_at : cache -> t -> Pointer.t
end

val create : capacity:int -> t
(** [capacity < 0] is an error; capacity 0 means the cache stores
    nothing. *)

val capacity : t -> int

val length : t -> int

val insert : t -> Pointer.t -> unit
(** Insert keyed by the pointer's destination identifier, evicting the least
    recently used entry first if full.  A re-insert replaces the route and
    refreshes recency. *)

val mem : t -> Rofl_idspace.Id.t -> bool
(** Membership; does not touch recency. *)

val find : t -> Rofl_idspace.Id.t -> Cursor.t
(** Exact lookup; refreshes recency of a hit. *)

val best_match : t -> cur:Rofl_idspace.Id.t -> target:Rofl_idspace.Id.t -> Cursor.t
(** The cached pointer whose identifier lies in the ring interval
    [(cur, target]] and is closest to [target] — i.e. strictly better greedy
    progress than standing still at [cur], and never past the target: the
    exact entry if cached, else the ring predecessor of [target] when it
    passes the interval gate.  Refreshes recency of the returned entry. *)

val remove : t -> Rofl_idspace.Id.t -> unit

val drop_if : t -> (Pointer.t -> bool) -> int
(** Remove entries matching a predicate (e.g. routes through a failed link);
    returns the number dropped. *)

val iter : t -> (Pointer.t -> unit) -> unit
(** From most to least recently used. *)

val clear : t -> unit

val resize : t -> capacity:int -> unit
(** Change the capacity, evicting least recently used entries if
    shrinking. *)

val audit : t -> string list
(** Structural agreement between the recency list and the sorted index: the
    sorted keys are strictly increasing and each equals the [Id.key] of its
    slot's identifier; every linked slot sits at its own sorted position
    with a pointer to that identifier; the list holds exactly as many
    entries as the index and ends at the tail.  Empty iff consistent — the
    ring doctor runs this at checkpoints, since a divergence silently
    corrupts {!best_match} answers. *)

(** Intradomain ROFL: ring construction, joins, and greedy lookup.

    One [t] models a single AS: a router topology with its link-state
    substrate, one default virtual node per router (joined by flooding at
    bootstrap, §3.1), and a growing population of host identifiers resident
    at gateway routers.  Pointer caches at every router are filled from
    control traffic only, as in the paper's experiments (§6.1).

    The record types are deliberately transparent: {!Forward},
    {!Failure} and {!Invariant} operate on the same state. *)

module Id = Rofl_idspace.Id
module Ring = Rofl_idspace.Ring
module Vnode = Rofl_core.Vnode
module Pointer = Rofl_core.Pointer
module Pointer_cache = Rofl_core.Pointer_cache

type config = {
  succ_group_size : int;     (** successors kept per vnode (>= 1) *)
  pred_group_size : int;
  cache_capacity : int;      (** pointer-cache entries per router *)
  cache_control_paths : bool;(** fill caches from join/control traffic *)
  authenticate_joins : bool; (** run the self-certifying handshake on join *)
  sybil_limit : int;         (** max resident IDs per router (audit, §2.1) *)
}

val default_config : config
(** 4 successors, 2 predecessors, 1024 cache entries, caching and
    authentication on, sybil limit 100k. *)

type router = {
  idx : int;
  default_vnode : Vnode.t;
  mutable residents : Vnode.t list; (** alive vnodes hosted here, incl. default *)
  cache : Pointer_cache.t;
  auditor : Rofl_crypto.Identity.sybil_auditor;
  (** ephemeral identifiers attached below this router's resident
      predecessors: id -> router currently hosting the ephemeral host *)
  attachments : (Id.t, int) Hashtbl.t;
}

type regs
(** A lookup register file: flat per-lookup registers, a hop log and a
    deferred NACK worklist, grown geometrically and reused across runs
    (see {!lookup} and {!Engine}). *)

type t = {
  graph : Rofl_topology.Graph.t;
  ls : Rofl_linkstate.Linkstate.t;
  rng : Rofl_util.Prng.t;
  cfg : config;
  routers : router array;
  metrics : Rofl_netsim.Metrics.t;
  vnodes : (Id.t, Vnode.t) Hashtbl.t; (** every alive vnode, any class *)
  mutable oracle : Vnode.t Ring.t;    (** ring members (default + stable) *)
  mutable bootstrap_msgs : int;       (** flood cost of router bootstrap *)
  regs : regs;
  (** the register file {!lookup} runs on.  It makes a network
      single-domain: one net is used by one domain at a time (lookups
      already charge [metrics] and mutate caches). *)
}

val create : ?cfg:config -> rng:Rofl_util.Prng.t -> Rofl_topology.Graph.t -> t
(** Build the AS: spawns and rings the default virtual nodes of every router,
    charging their bootstrap floods to the [flood] category. *)

val router_id : int -> Id.t
(** Deterministic router-ID for router index [i] (hash-derived, uniform). *)

type lookup_status =
  | Delivered of Vnode.t    (** exact identifier found, resident here *)
  | Predecessor of Vnode.t  (** closest preceding ring member *)
  | Stuck of int            (** no progress possible at this router *)

type lookup_result = {
  status : lookup_status;
  msgs : int;          (** physical messages charged *)
  latency_ms : float;  (** serial propagation latency of the walk *)
  visited : int list;  (** routers traversed, in order, inclusive of start *)
  trace : Rofl_routing.Trace.t; (** per-hop events, in walk order *)
}

val lookup :
  ?exclude:Id.t ->
  t -> from:int -> target:Id.t -> category:string -> use_cache:bool -> lookup_result
(** Greedy walk from a router towards [target]: at each router the closest
    non-overshooting identifier known (resident IDs, their successor
    pointers, pointer-cache) picks the next source route (Algorithm 2
    generalised to termination at the predecessor).  [exclude] removes one
    identifier from candidacy — used when an existing member re-joins and
    must not find itself.

    A batch of one on the network's own register file ({!Engine}'s walk),
    followed by the lookup's stale-pointer prunes.  Allocation-free apart
    from building [visited] and [trace] from the hop log at the end (and
    the cold paths {!Engine} lists).  The probed pointer-cache entry at
    each router gets its recency touched, as [Pointer_cache.best_match]
    does. *)

(** The batched intradomain data plane: the walk {!lookup} runs, over a
    struct-of-arrays batch of in-flight lookups advanced one walk-iteration
    per pass.

    Per-lookup state (position, committed horizon and route tail, NACK
    owner and chased identifier, restart budget, step guard, verdict) lives
    in flat int/float registers, so a pass touches the batch with no
    per-hop closures, lists or tuples.  The hot loop allocates nothing in
    steady state.  Cold paths may allocate: the SPF fallback when a cached
    route does not start at the current router, and the teardown charge of
    a stale-pointer NACK.

    Lookups in a run never see each other's side effects.  Each lookup
    emulates its own stale-pointer prunes through a bounded exclusion table,
    so a batch's verdicts equal those of running its lookups one at a time
    from the same state.  {!lookup} applies its prunes to router state
    before it returns; an [Engine] run leaves them unapplied, so its only
    router-state write is the pointer-cache recency touch.  In a
    multi-lookup batch those touches interleave by pass, which can leave a
    different recency order (never a different verdict) than one at a
    time.  Hops are charged to the [data] category, with caches on. *)
module Engine : sig
  type net := t
  type t

  val create : ?step_limit:int -> net -> t
  (** A register file of its own bound to a network.  [step_limit]
      overrides the step guard, which by default follows ring occupancy at
      each {!run}. *)

  val run : t -> from:int array -> targets:Id.t array -> unit
  (** Load a batch (lookup [i] starts at router [from.(i)] toward
      [targets.(i)]) and drive every lookup to a verdict.  Results stay
      valid until the next [run]. *)

  val batch_size : t -> int

  val passes : t -> int
  (** Passes the last {!run} needed (the longest walk's iteration count). *)

  val status : t -> int -> lookup_status

  val result : t -> int -> lookup_result
  (** What {!lookup} would have returned for lookup [i] (builds [visited]
      and [trace] by scanning the run's hop log). *)

  val msgs : t -> int -> int
  (** Link traversals charged to lookup [i]. *)

  val latency_ms : t -> int -> float

  val restarts : t -> int -> int
  (** Stale-pointer restarts lookup [i] consumed. *)
end

type join_outcome = {
  vnode : Vnode.t;
  join_msgs : int;     (** messages charged for this join *)
  join_latency_ms : float;
}

val join_host :
  t -> gateway:int -> id:Id.t -> cls:Vnode.host_class -> (join_outcome, string) result
(** Algorithm 1: authenticate (optional), spawn the vnode, locate the
    predecessor, splice succ/pred state, notify the successor, fill caches
    along the control paths.  Ephemeral hosts only establish the
    predecessor attachment (§2.2). *)

val join_fresh_host :
  t -> gateway:int -> cls:Vnode.host_class -> (Id.t * join_outcome, string) result
(** Generate a keypair, derive the self-certifying identifier, and join with
    the full handshake. *)

val leave_host : t -> Id.t -> (unit, string) result
(** Graceful leave: like a failure but without detection timeouts; tears
    down and repairs neighbours (charged to [teardown]/[repair]). *)

val find_vnode : t -> Id.t -> Vnode.t option

val spf_route : t -> int -> int -> Rofl_core.Sourceroute.t option
(** Link-state shortest route between two routers. *)

val make_pointer :
  t -> Pointer.kind -> from_router:int -> dst:Id.t -> dst_router:int -> Pointer.t option
(** Pointer with a fresh SPF source route; [None] if unreachable. *)

val cache_route_to : t -> Id.t -> int -> int list -> unit
(** [cache_route_to t id dst_router visited] lets every router along
    [visited] cache a pointer to [id] (suffix source routes), when
    [cache_control_paths] is on. *)

val resident_ids : t -> int -> Id.t list
(** Identifiers resident at a router (including the default vnode's). *)

val ring_size : t -> int
(** Ring members (stable + default vnodes). *)

val host_count : t -> int
(** Stable + ephemeral host identifiers currently alive. *)

val router_state_entries : t -> int -> int
(** Ring-state pointer entries pinned at a router (vnode succ/pred lists +
    ephemeral attachments) — the §6.2 memory metric. *)

val avg_router_state_entries : t -> float

val stabilize : t -> category:string -> int
(** Ring-order stabilisation sweep (the §3.2 zero-ID chain repair): every
    member whose successor pointer disagrees with its component's expected
    successor re-points, charging a repair round trip; dead and unreachable
    group entries are pruned.  Idempotent once converged (then it charges
    nothing).  Returns messages charged under [category]. *)

val rejoin_ring : t -> Vnode.t -> category:string -> int
(** Re-run the ring splice for an already-resident member (partition merge,
    §3.2): locate its current predecessor — excluding itself — and splice
    succ/pred state afresh.  Returns messages charged under [category]. *)

val repair_successor : t -> Vnode.t -> unit
(** Restore a vnode's successor state after its first successor died: shift
    the successor group if possible, otherwise re-lookup (charged to
    [repair]). *)

val repair_predecessor : t -> Vnode.t -> unit

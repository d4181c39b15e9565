(** Greedy candidate ranking, the decision at the heart of ROFL's ring
    walk: among the ways to make progress towards a flat label, take the
    one clockwise-closest without overshooting.  {!Rofl_inter.Route}'s
    AS-granularity walk ranks its candidates with it.  (The intradomain
    walk, which follows source routes one physical hop at a time with a
    persistent horizon and stale-pointer restarts, is
    {!Rofl_intra.Network.Engine}; it ranks inline over its registers.) *)

module Id = Rofl_idspace.Id

val best : target:Id.t -> id_of:('a -> Id.t) -> 'a list -> 'a option
(** The element whose identifier minimises the clockwise distance to
    [target] (so the target itself wins outright).  Ties keep the earliest
    element, so enumeration order encodes precedence — ring state is
    listed before cache shortcuts, which is how "a cached pointer wins
    only when strictly closer" falls out of the ranking.  Allocation-free
    per comparison: candidates are ranked with {!Id.closer_clockwise}
    rather than materialised distances. *)

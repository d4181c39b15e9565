module Id = Rofl_idspace.Id
module Pointer = Rofl_core.Pointer
module Pointer_cache = Rofl_core.Pointer_cache
module Cursor = Pointer_cache.Cursor
module Msg = Rofl_core.Msg
module Charge = Rofl_routing.Charge
module Asgraph = Rofl_asgraph.Asgraph
module Net = Rofl_inter.Net
module Level = Rofl_inter.Level
module Route = Rofl_inter.Route

(* Batched interdomain forwarding: the `Per_move` walk of
   {!Rofl_inter.Route} advanced one AS-level move per pass over per-lookup
   registers.  Candidate choice and charge accounting go through the exact
   substrate functions {!Route.best_local_resident},
   {!Route.lowest_level_candidate} and {!Route.charge_move}, so they cannot
   drift from [route_from].

   The engine is read-only on AS state: the dead-cache-entry prune that the
   sequential walk applies inside [cache_candidate] is emulated per-lookup
   (each lookup sees exactly the cache it would have left behind) and
   queued for {!apply_purges}.  AS-granularity moves inherently allocate
   (level-restricted paths are materialised to charge per-AS load), so
   unlike the intradomain engine this one makes no zero-allocation claim —
   the batching win here is pass-level locality, not allocation.

   Bloom-filter peering consults a shared RNG on every cache probe and
   peer check; interleaving batched draws would change the stream, so in
   [Bloom_filters] mode {!run} falls back to driving [route_from]
   sequentially — same results, same draws, no equivalence caveats. *)

let running = -1
let v_failed = 0
let v_delivered = 1

type t = {
  net : Net.t;
  mutable cap : int;
  mutable n : int;
  mutable dst : Id.t array;
  mutable cur : int array;
  mutable pos : Id.t array;
  mutable pos_host : Net.host array;
  mutable ceiling : Level.t array;
  mutable as_hops : int array;
  mutable pointer_hops : int array;
  mutable cache_hops : int array;
  mutable peer_crossings : int array;
  mutable backtracks : int array;
  mutable max_breadth : int array;
  mutable guard : int array;
  mutable verdict : int array;
  (* per-lookup emulated cache prunes: (as, id) this lookup has seen die *)
  mutable purged : (int * Id.t) list array;
  (* deferred control-plane purge worklist *)
  mutable wl : (int * Id.t) list;
  mutable wl_n : int;
  mutable remaining : int;
  mutable passes : int;
  dummy_host : Net.host;
}

let create net =
  let dummy_host =
    {
      Net.id = Id.zero;
      home_as = 0;
      strategy = Net.Ephemeral;
      joined = [];
      fingers = [];
      alive_h = false;
    }
  in
  {
    net;
    cap = 0;
    n = 0;
    dst = [||];
    cur = [||];
    pos = [||];
    pos_host = [||];
    ceiling = [||];
    as_hops = [||];
    pointer_hops = [||];
    cache_hops = [||];
    peer_crossings = [||];
    backtracks = [||];
    max_breadth = [||];
    guard = [||];
    verdict = [||];
    purged = [||];
    wl = [];
    wl_n = 0;
    remaining = 0;
    passes = 0;
    dummy_host;
  }

let ensure_capacity t want =
  if want > t.cap then begin
    let cap = max want (max 16 (2 * t.cap)) in
    t.cap <- cap;
    t.dst <- Array.make cap Id.zero;
    t.cur <- Array.make cap 0;
    t.pos <- Array.make cap Id.zero;
    t.pos_host <- Array.make cap t.dummy_host;
    t.ceiling <- Array.make cap Level.Root;
    t.as_hops <- Array.make cap 0;
    t.pointer_hops <- Array.make cap 0;
    t.cache_hops <- Array.make cap 0;
    t.peer_crossings <- Array.make cap 0;
    t.backtracks <- Array.make cap 0;
    t.max_breadth <- Array.make cap 0;
    t.guard <- Array.make cap 0;
    t.verdict <- Array.make cap running;
    t.purged <- Array.make cap []
  end

let purged_has t i a id =
  List.exists (fun (pa, pid) -> pa = a && Id.equal pid id) t.purged.(i)

let record_purge t i a id =
  t.purged.(i) <- (a, id) :: t.purged.(i);
  t.wl <- (a, id) :: t.wl;
  t.wl_n <- t.wl_n + 1

(* [Pointer_cache.best_match ~cur:pos ~target:dst] over this lookup's
   prune-adjusted cache: exact hit first (no interval gate — the target
   trivially qualifies), else the ring predecessor of [dst], gated by
   [between_incl pos _ dst].  Only the first surviving predecessor is
   considered, exactly like [Cursor.lt] on the pruned cache. *)
let best_match_pure t i as_idx ~pos ~dst =
  let cache = t.net.Net.caches.(as_idx) in
  let cf = Cursor.find cache dst in
  if (not (Cursor.is_none cf)) && not (purged_has t i as_idx dst) then
    Some (Cursor.value_at cache cf)
  else begin
    let rec scan start c steps =
      if Cursor.is_none c then None
      else begin
        let id = Cursor.id_at cache c in
        if not (purged_has t i as_idx id) then
          if Id.between_incl pos id dst then Some (Cursor.value_at cache c)
          else None
        else begin
          let c' = Cursor.prev cache c in
          if Cursor.equal c' start || steps > Pointer_cache.length cache then None
          else scan start c' (steps + 1)
        end
      end
    in
    let start = Cursor.lt cache dst in
    scan start start 0
  end

(* {!Route}'s [cache_candidate] without the eager prune: a dead or moved
   entry yields [None] for this lookup (recorded so later probes of the
   same AS within the lookup agree) and a deferred purge.  The bloom-mode
   false-positive conservatism draw cannot occur here: bloom mode never
   reaches this engine. *)
let cache_candidate_pure t i =
  let net = t.net in
  let as_idx = t.cur.(i) and pos = t.pos.(i) and dst = t.dst.(i) in
  if net.Net.cfg.Net.cache_capacity = 0 then None
  else begin
    let dst_below =
      match Net.locate net dst with
      | Some home -> Asgraph.in_cone (Level.graph net.Net.ctx) ~root:as_idx home
      | None -> false
    in
    if dst_below then None
    else
      match best_match_pure t i as_idx ~pos ~dst with
      | Some (p : Pointer.t) -> (
        match Hashtbl.find_opt net.Net.hosts p.Pointer.dst with
        | Some ch
          when ch.Net.alive_h
               && ch.Net.home_as = p.Pointer.dst_router
               && Id.between_incl pos p.Pointer.dst dst ->
          Some (p.Pointer.dst, ch)
        | Some _ | None ->
          record_purge t i as_idx p.Pointer.dst;
          None)
      | None -> None
  end

(* One `Per_move` walk iteration for lookup [i]; returns true while still
   in flight. *)
let step t i =
  let net = t.net in
  if t.guard.(i) > 4095 then begin
    t.verdict.(i) <- v_failed;
    false
  end
  else begin
    let arrived =
      match Net.locate net t.dst.(i) with
      | Some home -> home = t.cur.(i)
      | None -> false
    in
    if arrived then begin
      t.verdict.(i) <- v_delivered;
      false
    end
    else begin
      (* prepare: free intra-AS move to the closest local resident *)
      (match
         Route.best_local_resident net t.cur.(i) ~pos:t.pos.(i) ~dst:t.dst.(i)
       with
       | Some (mid, mh) when not (Id.equal mid t.pos.(i)) ->
         t.pos.(i) <- mid;
         t.pos_host.(i) <- mh
       | Some _ | None -> ());
      let ring_cand =
        Route.lowest_level_candidate net t.pos_host.(i) ~cur:t.cur.(i)
          ~pos:t.pos.(i) ~dst:t.dst.(i) ~ceiling:t.ceiling.(i)
      in
      let cache_cand = cache_candidate_pure t i in
      (* Keep-first over [ring; cache]: the cache shortcut overrides the
         ring candidate only when strictly closer to the destination. *)
      let take_cache =
        match (ring_cand, cache_cand) with
        | _, None -> false
        | None, Some _ -> true
        | Some (_, rid, _, _), Some (cid, _) ->
          Id.closer_clockwise ~target:t.dst.(i) cid rid
      in
      if take_cache then begin
        match cache_cand with
        | None -> assert false
        | Some (cid, ch) -> (
          match Route.charge_unrestricted net t.cur.(i) ch.Net.home_as with
          | None ->
            t.verdict.(i) <- v_failed;
            false
          | Some (d, _tail) ->
            t.as_hops.(i) <- t.as_hops.(i) + d;
            t.pointer_hops.(i) <- t.pointer_hops.(i) + 1;
            t.cache_hops.(i) <- t.cache_hops.(i) + 1;
            t.ceiling.(i) <- Level.Root;
            t.cur.(i) <- ch.Net.home_as;
            t.pos.(i) <- cid;
            t.pos_host.(i) <- ch;
            t.guard.(i) <- t.guard.(i) + 1;
            true)
      end
      else begin
        match ring_cand with
        | None ->
          (* no candidate at all (non-bloom): undeliverable *)
          t.verdict.(i) <- v_failed;
          false
        | Some (level, cid, ch, narrows) -> (
          match Route.charge_move net level t.cur.(i) ch.Net.home_as with
          | None ->
            t.verdict.(i) <- v_failed;
            false
          | Some (d, _tail) ->
            t.as_hops.(i) <- t.as_hops.(i) + d;
            t.pointer_hops.(i) <- t.pointer_hops.(i) + 1;
            t.max_breadth.(i) <-
              max t.max_breadth.(i) (Level.breadth net.Net.ctx level);
            t.cur.(i) <- ch.Net.home_as;
            t.pos.(i) <- cid;
            t.pos_host.(i) <- ch;
            if narrows then t.ceiling.(i) <- level;
            t.guard.(i) <- t.guard.(i) + 1;
            true)
      end
    end
  end

let load t ~srcs ~dsts =
  let n = Array.length dsts in
  if Array.length srcs <> n then
    invalid_arg "Dataplane.Inter: srcs/dsts length mismatch";
  ensure_capacity t n;
  t.n <- n;
  for i = 0 to n - 1 do
    let src : Net.host = srcs.(i) in
    t.dst.(i) <- dsts.(i);
    t.cur.(i) <- src.Net.home_as;
    t.pos.(i) <- src.Net.id;
    t.pos_host.(i) <- src;
    t.ceiling.(i) <- Level.Root;
    t.as_hops.(i) <- 0;
    t.pointer_hops.(i) <- 0;
    t.cache_hops.(i) <- 0;
    t.peer_crossings.(i) <- 0;
    t.backtracks.(i) <- 0;
    t.max_breadth.(i) <- 0;
    t.guard.(i) <- 0;
    t.verdict.(i) <- running;
    t.purged.(i) <- [];
    Charge.inject t.net.Net.metrics Msg.data src.Net.home_as
  done

let store_result t i (r : Route.result) =
  t.verdict.(i) <- (if r.Route.delivered then v_delivered else v_failed);
  t.as_hops.(i) <- r.Route.as_hops;
  t.pointer_hops.(i) <- r.Route.pointer_hops;
  t.cache_hops.(i) <- r.Route.cache_hops;
  t.peer_crossings.(i) <- r.Route.peer_crossings;
  t.backtracks.(i) <- r.Route.backtracks;
  t.max_breadth.(i) <- r.Route.max_level_breadth

(* Bloom-filter peering draws from the shared RNG on cache probes and peer
   checks: batching would reorder the stream.  Fall back to the sequential
   walk — exact semantics, including the draws. *)
let run_bloom_fallback t ~srcs ~dsts =
  let n = Array.length dsts in
  ensure_capacity t n;
  t.n <- n;
  t.passes <- 0;
  for i = 0 to n - 1 do
    store_result t i (Route.route_from t.net ~src:srcs.(i) ~dst:dsts.(i))
  done

let run t ~srcs ~dsts =
  if t.net.Net.cfg.Net.peering_mode = Net.Bloom_filters then
    run_bloom_fallback t ~srcs ~dsts
  else begin
    load t ~srcs ~dsts;
    t.remaining <- t.n;
    t.passes <- 0;
    while t.remaining > 0 do
      t.passes <- t.passes + 1;
      for i = 0 to t.n - 1 do
        if t.verdict.(i) = running then
          if not (step t i) then t.remaining <- t.remaining - 1
      done
    done
  end

let run_sequential t ~srcs ~dsts =
  if t.net.Net.cfg.Net.peering_mode = Net.Bloom_filters then
    run_bloom_fallback t ~srcs ~dsts
  else begin
    load t ~srcs ~dsts;
    t.passes <- 0;
    for i = 0 to t.n - 1 do
      while step t i do
        ()
      done
    done
  end

let batch_size t = t.n
let passes t = t.passes

let check_idx t i op =
  if i < 0 || i >= t.n then invalid_arg ("Dataplane.Inter." ^ op ^ ": index")

let delivered t i =
  check_idx t i "delivered";
  t.verdict.(i) = v_delivered

let as_hops t i = t.as_hops.(i)
let pointer_hops t i = t.pointer_hops.(i)
let cache_hops t i = t.cache_hops.(i)
let peer_crossings t i = t.peer_crossings.(i)
let backtracks t i = t.backtracks.(i)
let max_level_breadth t i = t.max_breadth.(i)

let delivered_count t =
  let c = ref 0 in
  for i = 0 to t.n - 1 do
    if t.verdict.(i) = v_delivered then incr c
  done;
  !c

let total_as_hops t =
  let c = ref 0 in
  for i = 0 to t.n - 1 do
    c := !c + t.as_hops.(i)
  done;
  !c

let purge_count t = t.wl_n

let apply_purges t =
  List.iter
    (fun (a, id) -> Pointer_cache.remove t.net.Net.caches.(a) id)
    t.wl;
  t.wl <- [];
  t.wl_n <- 0

module Id = Rofl_idspace.Id
module Ring = Rofl_idspace.Ring
module Vnode = Rofl_core.Vnode
module Pointer = Rofl_core.Pointer
module Pointer_cache = Rofl_core.Pointer_cache
module Cursor = Pointer_cache.Cursor
module Sourceroute = Rofl_core.Sourceroute
module Msg = Rofl_core.Msg
module Graph = Rofl_topology.Graph
module Linkstate = Rofl_linkstate.Linkstate
module Metrics = Rofl_netsim.Metrics
module Charge = Rofl_routing.Charge
module Network = Rofl_intra.Network

(* Batched intradomain forwarding: the exact state machine of
   {!Rofl_routing.Walk} over {!Rofl_intra.Network}'s lookup substrate,
   flattened into per-lookup registers living in parallel arrays so a whole
   batch advances one walk-iteration per pass.  One [step] call is one
   iteration of [Walk.Make(S).run]'s [loop] (including the [advance] the
   iteration performs, which is where the guard counts), so driving a single
   lookup to completion replays the sequential walk transition-for-
   transition.

   The engine never mutates router state: the stale-pointer NACK that
   [Network.lookup] applies eagerly (pruning the owner's pointers and two
   caches) is emulated per-lookup through a bounded exclusion table and
   emitted into a deferred worklist ([apply_nacks]) for the control plane.
   Charges (category counters, per-router load, teardown paths) are applied
   exactly as the sequential walk applies them; they are commutative
   counters, so batch interleaving cannot change totals. *)

(* Verdict register encoding. *)
let running = -1
let v_delivered = 0
let v_predecessor = 1
let v_stuck = 2

(* Exclusion kinds: a NACK prunes pointers *and* cache at the owner, but
   only the cache at the router that detected the staleness. *)
let ex_full = 1
let ex_cache = 0

let restart_limit = 4 (* must match Lookup_substrate.restart_limit *)

type t = {
  net : Network.t;
  counter : int ref; (* interned metrics cell for [category] *)
  use_cache : bool;
  step_limit_override : int option;
  route_cap : int; (* per-lookup route-segment stride; SPF paths are simple *)
  excl_cap : int; (* 2 exclusion entries per restart *)
  dummy_vn : Vnode.t;
  mutable step_limit : int;
  mutable cap : int;
  mutable n : int;
  (* per-lookup registers (struct-of-arrays, indexed by lookup) *)
  mutable target : Id.t array;
  mutable pos : int array;
  mutable best : Id.t array; (* committed horizon; valid iff best_valid=1 *)
  mutable best_valid : int array;
  mutable commit_owner : int array; (* router that issued the pointer; -1 none *)
  mutable commit_chased : Id.t array;
  mutable restarts : int array;
  mutable guard : int array;
  mutable msgs : int array;
  mutable latency : float array;
  mutable verdict : int array;
  mutable verdict_vn : Vnode.t array;
  (* committed-route tails, flattened at stride [route_cap] *)
  mutable route_buf : int array;
  mutable route_pos : int array;
  mutable route_len : int array;
  (* per-lookup NACK-prune emulation, flattened at stride [excl_cap] *)
  mutable excl_router : int array;
  mutable excl_kind : int array;
  mutable excl_id : Id.t array;
  mutable excl_n : int array;
  (* deferred control-plane worklist (grows on demand; stale events are the
     cold path) *)
  mutable nack_owner : int array;
  mutable nack_cur : int array;
  mutable nack_chased : Id.t array;
  mutable nack_n : int;
  mutable remaining : int;
  mutable passes : int;
  (* candidate-selection scratch: one register set reused per [step] *)
  mutable sel_some : bool;
  mutable sel_local : bool;
  mutable sel_vn : Vnode.t;
  mutable sel_ptr : Pointer.t;
  mutable sel_id : Id.t;
}

let create ?(category = Msg.data) ?(use_cache = true) ?step_limit net =
  let dummy_vn = net.Network.routers.(0).Network.default_vnode in
  let dummy_ptr =
    Pointer.make Pointer.Cached ~dst:Id.zero ~dst_router:0
      ~route:(Sourceroute.singleton 0)
  in
  {
    net;
    counter = Metrics.handle net.Network.metrics category;
    use_cache;
    step_limit_override = step_limit;
    route_cap = Graph.n net.Network.graph;
    excl_cap = 2 * restart_limit;
    dummy_vn;
    step_limit = 0;
    cap = 0;
    n = 0;
    target = [||];
    pos = [||];
    best = [||];
    best_valid = [||];
    commit_owner = [||];
    commit_chased = [||];
    restarts = [||];
    guard = [||];
    msgs = [||];
    latency = [||];
    verdict = [||];
    verdict_vn = [||];
    route_buf = [||];
    route_pos = [||];
    route_len = [||];
    excl_router = [||];
    excl_kind = [||];
    excl_id = [||];
    excl_n = [||];
    nack_owner = Array.make 8 0;
    nack_cur = Array.make 8 0;
    nack_chased = Array.make 8 Id.zero;
    nack_n = 0;
    remaining = 0;
    passes = 0;
    sel_some = false;
    sel_local = false;
    sel_vn = dummy_vn;
    sel_ptr = dummy_ptr;
    sel_id = Id.zero;
  }

let ensure_capacity t want =
  if want > t.cap then begin
    let cap = max want (max 16 (2 * t.cap)) in
    t.cap <- cap;
    t.target <- Array.make cap Id.zero;
    t.pos <- Array.make cap 0;
    t.best <- Array.make cap Id.zero;
    t.best_valid <- Array.make cap 0;
    t.commit_owner <- Array.make cap (-1);
    t.commit_chased <- Array.make cap Id.zero;
    t.restarts <- Array.make cap 0;
    t.guard <- Array.make cap 0;
    t.msgs <- Array.make cap 0;
    t.latency <- Array.make cap 0.0;
    t.verdict <- Array.make cap running;
    t.verdict_vn <- Array.make cap t.dummy_vn;
    t.route_buf <- Array.make (cap * t.route_cap) 0;
    t.route_pos <- Array.make cap 0;
    t.route_len <- Array.make cap 0;
    t.excl_router <- Array.make (cap * t.excl_cap) 0;
    t.excl_kind <- Array.make (cap * t.excl_cap) 0;
    t.excl_id <- Array.make (cap * t.excl_cap) Id.zero;
    t.excl_n <- Array.make cap 0
  end

(* -- allocation-free helpers (top-level recursion: no closures) ---------- *)

let rec resident_alive_in id = function
  | [] -> false
  | (vn : Vnode.t) :: tl ->
    (vn.Vnode.alive && Id.equal vn.Vnode.id id) || resident_alive_in id tl

(* Is [id] at router [r] covered by one of lookup [i]'s emulated prunes?
   [want_kind] is [ex_full] to match pointer prunes only, [ex_cache] to
   match any entry (every prune clears the cache at its router). *)
let rec excl_scan excl_router excl_kind excl_id base stop want_kind r id k =
  if k >= stop then false
  else if
    excl_router.(base + k) = r
    && (want_kind = ex_cache || excl_kind.(base + k) = ex_full)
    && Id.equal excl_id.(base + k) id
  then true
  else excl_scan excl_router excl_kind excl_id base stop want_kind r id (k + 1)

let excluded t i want_kind r id =
  let stop = t.excl_n.(i) in
  stop > 0
  && excl_scan t.excl_router t.excl_kind t.excl_id (i * t.excl_cap) stop want_kind
       r id 0

(* -- candidate selection (keep-first ranking, Walk.best) ----------------- *)

let consider_local t i (vn : Vnode.t) =
  if (not t.sel_some)
     || Id.closer_clockwise ~target:t.target.(i) vn.Vnode.id t.sel_id
  then begin
    t.sel_some <- true;
    t.sel_local <- true;
    t.sel_vn <- vn;
    t.sel_id <- vn.Vnode.id
  end

let consider_remote t i (p : Pointer.t) =
  if (not t.sel_some)
     || Id.closer_clockwise ~target:t.target.(i) p.Pointer.dst t.sel_id
  then begin
    t.sel_some <- true;
    t.sel_local <- false;
    t.sel_ptr <- p;
    t.sel_id <- p.Pointer.dst
  end

let rec scan_succs t i cur healthy = function
  | [] -> ()
  | (p : Pointer.t) :: tl ->
    if
      p.Pointer.dst_router <> cur
      && (healthy || Sourceroute.is_valid t.net.Network.ls p.Pointer.route)
      && not (excluded t i ex_full cur p.Pointer.dst)
    then consider_remote t i p;
    scan_succs t i cur healthy tl

let rec scan_residents t i cur healthy = function
  | [] -> ()
  | (vn : Vnode.t) :: tl ->
    if vn.Vnode.alive then begin
      let routable =
        match vn.Vnode.host_class with
        | Vnode.Stable | Vnode.Router_default -> true
        | Vnode.Ephemeral -> Id.equal vn.Vnode.id t.target.(i)
      in
      if routable then consider_local t i vn;
      scan_succs t i cur healthy vn.Vnode.succs
    end;
    scan_residents t i cur healthy tl

(* Predecessor scan over the cache's ring order skipping entries this
   lookup has (virtually) pruned — what [Cursor.lt] would return had the
   prunes been applied.  Wrap-bounded: after [excl_cap] skips, or once back
   at the start, the pruned cache holds nothing eligible. *)
let rec skip_pruned t i cur cache start c steps =
  if Cursor.is_none c then c
  else if not (excluded t i ex_cache cur (Cursor.id_at cache c)) then c
  else if steps >= t.excl_cap then Cursor.none
  else begin
    let c' = Cursor.prev cache c in
    if Cursor.equal c' start then Cursor.none
    else skip_pruned t i cur cache start c' (steps + 1)
  end

(* [Pointer_cache.best_match ~cur:target ~target] over the prune-adjusted
   cache: exact hit first, else the ring predecessor of the target (the
   [between_incl target _ target] acceptance is the full ring, so any
   predecessor qualifies).  LRU recency is deliberately not touched — the
   data plane is read-only; recency only influences later control-plane
   evictions, never a lookup's own result. *)
let cache_probe t i cur healthy =
  let target = t.target.(i) in
  let cache = t.net.Network.routers.(cur).Network.cache in
  let c =
    let cf = Cursor.find cache target in
    if (not (Cursor.is_none cf)) && not (excluded t i ex_cache cur target)
    then cf
    else begin
      let start = Cursor.lt cache target in
      skip_pruned t i cur cache start start 0
    end
  in
  if not (Cursor.is_none c) then begin
    let p = Cursor.value_at cache c in
    if
      p.Pointer.dst_router <> cur
      && (healthy || Sourceroute.is_valid t.net.Network.ls p.Pointer.route)
    then consider_remote t i p
  end

(* Enumeration order encodes tie precedence exactly as the sequential
   substrate's [candidates]: residents (and their successor pointers)
   first, the cache shortcut last. *)
let select t i cur =
  t.sel_some <- false;
  let healthy = Linkstate.healthy t.net.Network.ls in
  scan_residents t i cur healthy t.net.Network.routers.(cur).Network.residents;
  if t.use_cache then cache_probe t i cur healthy

(* -- verdicts ------------------------------------------------------------ *)

let finish_stuck t i = t.verdict.(i) <- v_stuck

let finish_local t i (vn : Vnode.t) =
  t.verdict_vn.(i) <- vn;
  t.verdict.(i) <-
    (if Id.equal vn.Vnode.id t.target.(i) then v_delivered else v_predecessor)

let rec settle_scan t i target = function
  | [] -> ()
  | (vn : Vnode.t) :: tl ->
    (if
       vn.Vnode.alive
       &&
       match vn.Vnode.host_class with
       | Vnode.Ephemeral -> Id.equal vn.Vnode.id target
       | Vnode.Stable | Vnode.Router_default -> true
     then
       if (not t.sel_some) || Id.closer_clockwise ~target vn.Vnode.id t.sel_id
       then begin
         t.sel_some <- true;
         t.sel_vn <- vn;
         t.sel_id <- vn.Vnode.id
       end);
    settle_scan t i target tl

(* Recovery exhausted: settle for the best eligible local resident. *)
let finish_settle t i cur =
  t.sel_some <- false;
  settle_scan t i t.target.(i) t.net.Network.routers.(cur).Network.residents;
  if t.sel_some then finish_local t i t.sel_vn else finish_stuck t i

(* -- committed routes ---------------------------------------------------- *)

let rec copy_hops buf base k = function
  | [] -> k
  | h :: tl ->
    buf.(base + k) <- h;
    copy_hops buf base (k + 1) tl

let install_route t i hops =
  t.route_len.(i) <- copy_hops t.route_buf (i * t.route_cap) 0 hops;
  t.route_pos.(i) <- 0;
  true

let commit_route t i cur (p : Pointer.t) =
  match Sourceroute.hops p.Pointer.route with
  | hd :: rest when hd = cur -> install_route t i rest
  | _ -> (
    (* Route does not start here (cached suffix mismatch): fall back to the
       network map — the sequential walk's cold path, allocation accepted. *)
    match Linkstate.path t.net.Network.ls cur p.Pointer.dst_router with
    | Some (_ :: rest) -> install_route t i rest
    | Some [] | None -> false)

(* One physical hop along the committed route: charge, count, accumulate
   latency.  The adjacency scan folds the static link check and the latency
   lookup into one alloc-free list walk. *)
let rec adj_step t i next = function
  | [] -> false
  | (w, l) :: tl ->
    if w = next then begin
      t.latency.(i) <- t.latency.(i) +. l;
      true
    end
    else adj_step t i next tl

let follow_one t i =
  if t.route_pos.(i) >= t.route_len.(i) then begin
    (* Empty committed tail: Blocked. *)
    finish_stuck t i;
    false
  end
  else begin
    let cur = t.pos.(i) in
    let k = t.route_pos.(i) in
    let next = t.route_buf.((i * t.route_cap) + k) in
    if adj_step t i next (Graph.neighbors t.net.Network.graph cur) then begin
      Metrics.charge_hop_via t.net.Network.metrics t.counter next;
      t.msgs.(i) <- t.msgs.(i) + 1;
      t.route_pos.(i) <- k + 1;
      t.pos.(i) <- next;
      t.guard.(i) <- t.guard.(i) + 1;
      true
    end
    else begin
      finish_stuck t i;
      false
    end
  end

(* -- stale-pointer NACK (cold path; emulated, deferred) ------------------ *)

let add_excl t i router kind id =
  let n = t.excl_n.(i) in
  if n < t.excl_cap then begin
    let at = (i * t.excl_cap) + n in
    t.excl_router.(at) <- router;
    t.excl_kind.(at) <- kind;
    t.excl_id.(at) <- id;
    t.excl_n.(i) <- n + 1
  end

let push_nack t cur owner chased =
  let cap = Array.length t.nack_owner in
  if t.nack_n >= cap then begin
    let grow a fill =
      let b = Array.make (2 * cap) fill in
      Array.blit a 0 b 0 cap;
      b
    in
    t.nack_owner <- grow t.nack_owner 0;
    t.nack_cur <- grow t.nack_cur 0;
    t.nack_chased <- grow t.nack_chased Id.zero
  end;
  t.nack_owner.(t.nack_n) <- owner;
  t.nack_cur.(t.nack_n) <- cur;
  t.nack_chased.(t.nack_n) <- chased;
  t.nack_n <- t.nack_n + 1

let emit_nack t i cur owner chased =
  (* Identical charge to the sequential NACK's teardown along the SPF path
     back to the pointer's owner. *)
  (match Linkstate.path t.net.Network.ls cur owner with
   | Some hops -> Charge.path t.net.Network.metrics Msg.teardown hops
   | None -> ());
  add_excl t i owner ex_full chased;
  add_excl t i cur ex_cache chased;
  push_nack t cur owner chased

(* -- the per-lookup step: one Walk iteration ----------------------------- *)

let step t i =
  if t.guard.(i) > t.step_limit then begin
    finish_stuck t i;
    false
  end
  else begin
    let cur = t.pos.(i) in
    let owner = t.commit_owner.(i) in
    let exhausted_now = owner < 0 || t.route_pos.(i) >= t.route_len.(i) in
    if
      exhausted_now
      && t.restarts.(i) < restart_limit
      && owner >= 0
      && not
           (resident_alive_in t.commit_chased.(i)
              t.net.Network.routers.(cur).Network.residents)
    then begin
      (* Stale pointer pruned (NACK): restart from here with a cleared
         horizon. *)
      emit_nack t i cur owner t.commit_chased.(i);
      t.commit_owner.(i) <- -1;
      t.best_valid.(i) <- 0;
      t.restarts.(i) <- t.restarts.(i) + 1;
      t.guard.(i) <- t.guard.(i) + 1;
      true
    end
    else begin
      select t i cur;
      if not t.sel_some then begin
        finish_stuck t i;
        false
      end
      else if t.sel_local then begin
        finish_local t i t.sel_vn;
        false
      end
      else begin
        let cid = t.sel_id in
        let commit_now =
          if t.best_valid.(i) = 1 then
            Id.closer_clockwise ~target:t.target.(i) cid t.best.(i)
          else
            (* Cleared horizon: the register is [succ target], the unique
               identifier at maximal clockwise distance, so "strictly
               closer" is "distance to target below the ring maximum" —
               testable against the constant (zero, max_value) span without
               materialising the sentinel. *)
            Id.compare_dist cid t.target.(i) Id.zero Id.max_value < 0
        in
        if commit_now then begin
          let p = t.sel_ptr in
          t.commit_owner.(i) <- cur;
          t.commit_chased.(i) <- p.Pointer.dst;
          if commit_route t i cur p then begin
            if follow_one t i then begin
              t.best.(i) <- cid;
              t.best_valid.(i) <- 1;
              true
            end
            else false
          end
          else begin
            finish_stuck t i;
            false
          end
        end
        else if owner >= 0 && t.route_pos.(i) < t.route_len.(i) then
          (* Nothing closer here; keep following the committed route. *)
          follow_one t i
        else begin
          finish_settle t i cur;
          false
        end
      end
    end
  end

(* -- batch driver -------------------------------------------------------- *)

let load t ~from ~targets =
  let n = Array.length targets in
  if Array.length from <> n then
    invalid_arg "Dataplane.Intra: from/targets length mismatch";
  ensure_capacity t n;
  t.n <- n;
  t.step_limit <-
    (match t.step_limit_override with
     | Some s -> s
     | None ->
       (4 * Graph.n t.net.Network.graph)
       + (2 * Ring.cardinal t.net.Network.oracle)
       + 16);
  for i = 0 to n - 1 do
    t.target.(i) <- targets.(i);
    t.pos.(i) <- from.(i);
    t.best_valid.(i) <- 0;
    t.commit_owner.(i) <- -1;
    t.restarts.(i) <- 0;
    t.guard.(i) <- 0;
    t.msgs.(i) <- 0;
    t.latency.(i) <- 0.0;
    t.verdict.(i) <- running;
    t.route_pos.(i) <- 0;
    t.route_len.(i) <- 0;
    t.excl_n.(i) <- 0;
    (* Injection charge: [Charge.inject] nets out to load at the origin. *)
    Metrics.charge_load t.net.Network.metrics from.(i)
  done

let run t ~from ~targets =
  load t ~from ~targets;
  t.remaining <- t.n;
  t.passes <- 0;
  while t.remaining > 0 do
    t.passes <- t.passes + 1;
    for i = 0 to t.n - 1 do
      if t.verdict.(i) = running then
        if not (step t i) then t.remaining <- t.remaining - 1
    done
  done

let run_sequential t ~from ~targets =
  load t ~from ~targets;
  t.passes <- 0;
  for i = 0 to t.n - 1 do
    while step t i do
      ()
    done
  done

(* -- results ------------------------------------------------------------- *)

let batch_size t = t.n
let passes t = t.passes

let status t i : Network.lookup_status =
  if i < 0 || i >= t.n then invalid_arg "Dataplane.Intra.status: index";
  match t.verdict.(i) with
  | 0 -> Network.Delivered t.verdict_vn.(i)
  | 1 -> Network.Predecessor t.verdict_vn.(i)
  | 2 -> Network.Stuck t.pos.(i)
  | _ -> invalid_arg "Dataplane.Intra.status: lookup still in flight"

let msgs t i = t.msgs.(i)
let latency_ms t i = t.latency.(i)
let restarts t i = t.restarts.(i)

let delivered_count t =
  let c = ref 0 in
  for i = 0 to t.n - 1 do
    if t.verdict.(i) = v_delivered then incr c
  done;
  !c

let total_hops t =
  let c = ref 0 in
  for i = 0 to t.n - 1 do
    c := !c + t.msgs.(i)
  done;
  !c

let nack_count t = t.nack_n

let apply_nacks t =
  for k = 0 to t.nack_n - 1 do
    let owner = t.nack_owner.(k)
    and cur = t.nack_cur.(k)
    and chased = t.nack_chased.(k) in
    List.iter
      (fun (vn : Vnode.t) ->
        ignore
          (Vnode.drop_pointers_if vn (fun (p : Pointer.t) ->
               Id.equal p.Pointer.dst chased)))
      t.net.Network.routers.(owner).Network.residents;
    Pointer_cache.remove t.net.Network.routers.(owner).Network.cache chased;
    Pointer_cache.remove t.net.Network.routers.(cur).Network.cache chased
  done;
  t.nack_n <- 0

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
module Trace = Rofl_routing.Trace
module Prng = Rofl_util.Prng
module Identity = Rofl_crypto.Identity
module Sha256 = Rofl_crypto.Sha256

let log_src = Rofl_util.Logging.make_src "intra"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  succ_group_size : int;
  pred_group_size : int;
  cache_capacity : int;
  cache_control_paths : bool;
  authenticate_joins : bool;
  sybil_limit : int;
}

let default_config =
  {
    succ_group_size = 4;
    pred_group_size = 2;
    cache_capacity = 1024;
    cache_control_paths = true;
    authenticate_joins = true;
    sybil_limit = 100_000;
  }

type router = {
  idx : int;
  default_vnode : Vnode.t;
  mutable residents : Vnode.t list;
  cache : Pointer_cache.t;
  auditor : Identity.sybil_auditor;
  attachments : (Id.t, int) Hashtbl.t;
}

(* The lookup register file: every greedy lookup runs on one of these (see
   "greedy lookup" below).  Per-lookup registers live in parallel arrays
   indexed by lookup, so a batch advances one walk-iteration per pass and
   the hot loop touches no per-hop closures, lists or tuples. *)
type regs = {
  mutable category : string;
  mutable counter : int ref; (* [category]'s metrics cell, resolved per run *)
  mutable use_cache : bool;
  step_limit_override : int option;
  mutable exclude : Id.t; (* removed from candidacy iff [excluding] *)
  mutable excluding : bool;
  dummy_vn : Vnode.t;
  mutable step_limit : int;
  mutable cap : int;
  mutable n : int;
  (* per-lookup registers *)
  mutable origin : int array;
  mutable target : Id.t array;
  mutable pos : int array;
  mutable best : Id.t array; (* committed horizon; valid iff best_valid=1 *)
  mutable best_valid : int array;
  mutable commit_owner : int array; (* router that issued the pointer; -1 none *)
  mutable commit_chased : Id.t array;
  mutable commit_kind : Trace.kind array; (* Ring or Cache: the committed pointer's *)
  mutable restarts : int array;
  mutable guard : int array;
  mutable msgs : int array;
  mutable latency : float array;
  mutable verdict : int array;
  mutable verdict_vn : Vnode.t array;
  (* committed-route tails: the hops still to follow, shared with the
     pointer's source route (no copy, so no length bound) *)
  mutable route_tail : int list array;
  (* per-lookup NACK-prune emulation, flattened at stride [excl_cap] *)
  mutable excl_router : int array;
  mutable excl_kind : int array;
  mutable excl_id : Id.t array;
  mutable excl_n : int array;
  (* hop log of the current run: (lookup, router, kind, chased id) *)
  mutable log_lookup : int array;
  mutable log_router : int array;
  mutable log_kind : Trace.kind array;
  mutable log_chased : Id.t array;
  mutable log_n : int;
  (* deferred stale-pointer prunes, applied by [apply_nacks] *)
  mutable nack_owner : int array;
  mutable nack_cur : int array;
  mutable nack_chased : Id.t array;
  mutable nack_n : int;
  mutable remaining : int;
  mutable passes : int;
  (* candidate-selection scratch: one register set reused per step *)
  mutable sel_some : bool;
  mutable sel_local : bool;
  mutable sel_vn : Vnode.t;
  mutable sel_ptr : Pointer.t;
  mutable sel_id : Id.t;
}

type t = {
  graph : Graph.t;
  ls : Linkstate.t;
  rng : Prng.t;
  cfg : config;
  routers : router array;
  metrics : Metrics.t;
  vnodes : (Id.t, Vnode.t) Hashtbl.t;
  mutable oracle : Vnode.t Ring.t;
  mutable bootstrap_msgs : int;
  regs : regs;
}

let make_regs ?step_limit () =
  let dummy_vn = Vnode.create Id.zero Vnode.Router_default ~hosted_at:(-1) in
  {
    category = Msg.data;
    counter = ref 0;
    use_cache = true;
    step_limit_override = step_limit;
    exclude = Id.zero;
    excluding = false;
    dummy_vn;
    step_limit = 0;
    cap = 0;
    n = 0;
    origin = [||];
    target = [||];
    pos = [||];
    best = [||];
    best_valid = [||];
    commit_owner = [||];
    commit_chased = [||];
    commit_kind = [||];
    restarts = [||];
    guard = [||];
    msgs = [||];
    latency = [||];
    verdict = [||];
    verdict_vn = [||];
    route_tail = [||];
    excl_router = [||];
    excl_kind = [||];
    excl_id = [||];
    excl_n = [||];
    log_lookup = Array.make 16 0;
    log_router = Array.make 16 0;
    log_kind = Array.make 16 Trace.Ring;
    log_chased = Array.make 16 Id.zero;
    log_n = 0;
    nack_owner = Array.make 8 0;
    nack_cur = Array.make 8 0;
    nack_chased = Array.make 8 Id.zero;
    nack_n = 0;
    remaining = 0;
    passes = 0;
    sel_some = false;
    sel_local = false;
    sel_vn = dummy_vn;
    sel_ptr =
      Pointer.make Pointer.Cached ~dst:Id.zero ~dst_router:0
        ~route:(Sourceroute.singleton 0);
    sel_id = Id.zero;
  }

let router_id i =
  Id.of_bytes_exn (String.sub (Sha256.digest (Printf.sprintf "router:%d" i)) 0 16)

(* -- path helpers ------------------------------------------------------- *)

let path_latency t = function
  | [] | [ _ ] -> 0.0
  | hops ->
    let rec go acc = function
      | a :: (b :: _ as rest) -> go (acc +. Graph.latency t.graph a b) rest
      | [ _ ] | [] -> acc
    in
    go 0.0 hops

let spf_route t src dst =
  match Linkstate.path t.ls src dst with
  | Some hops -> Some (Sourceroute.of_hops hops)
  | None -> None

let make_pointer t kind ~from_router ~dst ~dst_router =
  match spf_route t from_router dst_router with
  | Some route -> Some (Pointer.make kind ~dst ~dst_router ~route)
  | None -> None

(* Charge a message travelling the SPF path between two routers; returns the
   hop count and latency (0 if unreachable). *)
let charge_spf t category src dst =
  match Linkstate.path t.ls src dst with
  | Some hops ->
    Charge.path t.metrics category hops;
    (List.length hops - 1, path_latency t hops)
  | None -> (0, 0.0)

(* -- construction ------------------------------------------------------- *)

let create ?(cfg = default_config) ~rng graph =
  if cfg.succ_group_size < 1 then invalid_arg "Network.create: succ group must be >= 1";
  let ls = Linkstate.create graph in
  let n = Graph.n graph in
  let routers =
    Array.init n (fun idx ->
        {
          idx;
          default_vnode = Vnode.create (router_id idx) Vnode.Router_default ~hosted_at:idx;
          residents = [];
          cache = Pointer_cache.create ~capacity:cfg.cache_capacity;
          auditor = Identity.auditor ~limit:cfg.sybil_limit;
          attachments = Hashtbl.create 8;
        })
  in
  let t =
    {
      graph;
      ls;
      rng;
      cfg;
      routers;
      metrics = Metrics.create ~routers:n;
      vnodes = Hashtbl.create (4 * n);
      oracle = Ring.empty;
      bootstrap_msgs = 0;
      regs = make_regs ();
    }
  in
  (* Bootstrap: every router's default vnode joins by flooding its
     router-ID (§3.1); the resulting steady state is the ring over
     router-IDs with succ/pred groups and SPF source routes. *)
  Array.iter
    (fun r ->
      r.residents <- [ r.default_vnode ];
      Hashtbl.replace t.vnodes r.default_vnode.Vnode.id r.default_vnode;
      t.oracle <- Ring.add r.default_vnode.Vnode.id r.default_vnode t.oracle;
      let cost = Linkstate.lsa_flood_cost ls in
      Charge.bulk t.metrics Msg.flood cost;
      t.bootstrap_msgs <- t.bootstrap_msgs + cost)
    routers;
  Array.iter
    (fun r ->
      let vn = r.default_vnode in
      let succs =
        Ring.k_successors cfg.succ_group_size vn.Vnode.id t.oracle
        |> List.filter_map (fun (sid, (sv : Vnode.t)) ->
               if Id.equal sid vn.Vnode.id then None
               else
                 make_pointer t Pointer.Successor ~from_router:r.idx ~dst:sid
                   ~dst_router:sv.Vnode.hosted_at)
      in
      Vnode.set_succs vn succs;
      let preds =
        let rec collect acc cur k =
          if k = 0 then acc
          else
            match Ring.predecessor cur t.oracle with
            | Some (pid, (pv : Vnode.t)) when not (Id.equal pid vn.Vnode.id) ->
              let acc =
                match
                  make_pointer t Pointer.Predecessor ~from_router:r.idx ~dst:pid
                    ~dst_router:pv.Vnode.hosted_at
                with
                | Some p -> p :: acc
                | None -> acc
              in
              collect acc pid (k - 1)
            | Some _ | None -> acc
        in
        List.rev (collect [] vn.Vnode.id cfg.pred_group_size)
      in
      Vnode.set_preds vn preds)
    routers;
  t

(* -- greedy lookup ------------------------------------------------------ *)

type lookup_status = Delivered of Vnode.t | Predecessor of Vnode.t | Stuck of int

type lookup_result = {
  status : lookup_status;
  msgs : int;
  latency_ms : float;
  visited : int list;
  trace : Trace.t;
}

(* The walk moves ONE physical hop at a time: Algorithm 2's route() runs at
   every router a message transits, so transit routers can shortcut through
   their own residents and pointer caches.  Each lookup is a row of [regs]
   and one [step] is one iteration of the greedy loop: guard check,
   stale-pointer NACK/restart, candidate ranking (closest without
   overshoot, keep-first ties, so residents and their successor pointers
   beat an equally close cache entry), then terminal delivery, commit to a
   strictly closer candidate's source route, continuation along the
   committed route, or settling for the best local member.  A batch of
   lookups advances one step per lookup per pass; {!lookup} is a batch of
   one.

   Stale-pointer NACKs are not applied mid-run: each lookup emulates its
   own prunes through a bounded exclusion table and queues them for
   [apply_nacks], which {!lookup} runs after its walk, so lookups in a
   batch never see each other's side effects and a batch of one
   reproduces the eager prune exactly.  The one
   router-state write inside a run is the pointer-cache recency touch of
   the probed entry, as [Pointer_cache.best_match] does it: recency decides
   which entry a later insert evicts, never a lookup's own result.
   Allocation-free apart from amortised register growth, the SPF fallback
   when a cached route does not start at the current router, and the
   teardown charge of a NACK. *)

(* Stale-pointer restarts a lookup may take before it stops pruning and
   settles; each restart records two NACK-prune entries. *)
let restart_limit = 4
let excl_cap = 2 * restart_limit

(* Verdict register encoding. *)
let running = -1
let v_delivered = 0
let v_predecessor = 1
let v_stuck = 2

(* Exclusion kinds: a NACK prunes pointers *and* cache at the owner, but
   only the cache at the router that detected the staleness. *)
let ex_full = 1
let ex_cache = 0

let ensure_capacity r want =
  if want > r.cap then begin
    let cap = max want (max 16 (2 * r.cap)) in
    r.cap <- cap;
    r.origin <- Array.make cap 0;
    r.target <- Array.make cap Id.zero;
    r.pos <- Array.make cap 0;
    r.best <- Array.make cap Id.zero;
    r.best_valid <- Array.make cap 0;
    r.commit_owner <- Array.make cap (-1);
    r.commit_chased <- Array.make cap Id.zero;
    r.commit_kind <- Array.make cap Trace.Ring;
    r.restarts <- Array.make cap 0;
    r.guard <- Array.make cap 0;
    r.msgs <- Array.make cap 0;
    r.latency <- Array.make cap 0.0;
    r.verdict <- Array.make cap running;
    r.verdict_vn <- Array.make cap r.dummy_vn;
    r.route_tail <- Array.make cap [];
    r.excl_router <- Array.make (cap * excl_cap) 0;
    r.excl_kind <- Array.make (cap * excl_cap) 0;
    r.excl_id <- Array.make (cap * excl_cap) Id.zero;
    r.excl_n <- Array.make cap 0
  end

let grow a fill =
  let n = Array.length a in
  let b = Array.make (2 * n) fill in
  Array.blit a 0 b 0 n;
  b

(* -- allocation-free helpers (top-level recursion: no closures) ---------- *)

let rec resident_alive_in id = function
  | [] -> false
  | (vn : Vnode.t) :: tl ->
    (vn.Vnode.alive && Id.equal vn.Vnode.id id) || resident_alive_in id tl

(* Is [id] at router [rt] covered by one of lookup [i]'s emulated prunes?
   [want_kind] is [ex_full] to match pointer prunes only, [ex_cache] to
   match any entry (every prune clears the cache at its router). *)
let rec excl_scan excl_router excl_kind excl_id base stop want_kind rt id k =
  if k >= stop then false
  else if
    excl_router.(base + k) = rt
    && (want_kind = ex_cache || excl_kind.(base + k) = ex_full)
    && Id.equal excl_id.(base + k) id
  then true
  else excl_scan excl_router excl_kind excl_id base stop want_kind rt id (k + 1)

let pruned r i want_kind rt id =
  let stop = r.excl_n.(i) in
  stop > 0
  && excl_scan r.excl_router r.excl_kind r.excl_id (i * excl_cap) stop want_kind rt id 0

(* The [?exclude] identifier of {!lookup}: never a candidate. *)
let excluded r id = r.excluding && Id.equal r.exclude id

(* -- candidate selection (keep-first ranking) ---------------------------- *)

let consider_local r i (vn : Vnode.t) =
  if (not r.sel_some) || Id.closer_clockwise ~target:r.target.(i) vn.Vnode.id r.sel_id
  then begin
    r.sel_some <- true;
    r.sel_local <- true;
    r.sel_vn <- vn;
    r.sel_id <- vn.Vnode.id
  end

let consider_remote r i (p : Pointer.t) =
  if (not r.sel_some) || Id.closer_clockwise ~target:r.target.(i) p.Pointer.dst r.sel_id
  then begin
    r.sel_some <- true;
    r.sel_local <- false;
    r.sel_ptr <- p;
    r.sel_id <- p.Pointer.dst
  end

(* Pointer routes are recorded from links actually traversed (or SPF
   paths), so with no failure outstanding ([healthy]) they are valid by
   construction and the per-hop scan is skipped.  Same-router pointers are
   covered by local candidates (or are stale): a remote candidate must
   actually lead elsewhere. *)
let rec scan_succs net r i cur healthy = function
  | [] -> ()
  | (p : Pointer.t) :: tl ->
    if
      p.Pointer.dst_router <> cur
      && (healthy || Sourceroute.is_valid net.ls p.Pointer.route)
      && (not (excluded r p.Pointer.dst))
      && not (pruned r i ex_full cur p.Pointer.dst)
    then consider_remote r i p;
    scan_succs net r i cur healthy tl

(* Ephemeral identifiers never serve as ring hops (§2.2); they are only
   candidates when they are the packet's own destination. *)
let routable r i (vn : Vnode.t) =
  match vn.Vnode.host_class with
  | Vnode.Stable | Vnode.Router_default -> true
  | Vnode.Ephemeral -> Id.equal vn.Vnode.id r.target.(i)

let rec scan_residents net r i cur healthy = function
  | [] -> ()
  | (vn : Vnode.t) :: tl ->
    if vn.Vnode.alive then begin
      if routable r i vn && not (excluded r vn.Vnode.id) then consider_local r i vn;
      scan_succs net r i cur healthy vn.Vnode.succs
    end;
    scan_residents net r i cur healthy tl

(* Predecessor scan over the cache's ring order skipping entries this
   lookup has (virtually) pruned — what [Cursor.lt] would return had the
   prunes been applied.  Wrap-bounded: after [excl_cap] skips, or once back
   at the start, the pruned cache holds nothing eligible. *)
let rec skip_pruned r i cur cache start c steps =
  if Cursor.is_none c then c
  else if not (pruned r i ex_cache cur (Cursor.id_at cache c)) then c
  else if steps >= excl_cap then Cursor.none
  else begin
    let c' = Cursor.prev cache c in
    if Cursor.equal c' start then Cursor.none
    else skip_pruned r i cur cache start c' (steps + 1)
  end

(* [Pointer_cache.best_match ~cur:target ~target] over the prune-adjusted
   cache: exact hit first, else the ring predecessor of the target (the
   [between_incl target _ target] acceptance is the full ring, so any
   predecessor qualifies).  The probed entry's recency is touched whether
   or not it then qualifies, exactly as [best_match] touches what it
   returns. *)
let cache_probe net r i cur healthy =
  let target = r.target.(i) in
  let cache = net.routers.(cur).cache in
  let c =
    let cf = Cursor.find cache target in
    if (not (Cursor.is_none cf)) && not (pruned r i ex_cache cur target) then cf
    else begin
      let start = Cursor.lt cache target in
      skip_pruned r i cur cache start start 0
    end
  in
  if not (Cursor.is_none c) then begin
    Pointer_cache.touch cache c;
    let p = Cursor.value_at cache c in
    if
      p.Pointer.dst_router <> cur
      && (healthy || Sourceroute.is_valid net.ls p.Pointer.route)
      && not (excluded r p.Pointer.dst)
    then consider_remote r i p
  end

(* Enumeration order encodes tie precedence: residents (and their
   successor pointers) first, the cache shortcut last. *)
let select net r i cur =
  r.sel_some <- false;
  let healthy = Linkstate.healthy net.ls in
  scan_residents net r i cur healthy net.routers.(cur).residents;
  if r.use_cache then cache_probe net r i cur healthy

(* -- verdicts ------------------------------------------------------------ *)

let finish_stuck r i = r.verdict.(i) <- v_stuck

let finish_local r i (vn : Vnode.t) =
  r.verdict_vn.(i) <- vn;
  r.verdict.(i) <-
    (if Id.equal vn.Vnode.id r.target.(i) then v_delivered else v_predecessor)

let rec settle_scan r i = function
  | [] -> ()
  | (vn : Vnode.t) :: tl ->
    if
      vn.Vnode.alive
      && routable r i vn
      && (not (excluded r vn.Vnode.id))
      && ((not r.sel_some) || Id.closer_clockwise ~target:r.target.(i) vn.Vnode.id r.sel_id)
    then begin
      r.sel_some <- true;
      r.sel_vn <- vn;
      r.sel_id <- vn.Vnode.id
    end;
    settle_scan r i tl

(* Recovery exhausted: settle for the best eligible local resident. *)
let finish_settle net r i cur =
  r.sel_some <- false;
  settle_scan r i net.routers.(cur).residents;
  if r.sel_some then finish_local r i r.sel_vn else finish_stuck r i

(* -- hop log -------------------------------------------------------------- *)

let log_hop r i router kind chased =
  if r.log_n >= Array.length r.log_router then begin
    r.log_lookup <- grow r.log_lookup 0;
    r.log_router <- grow r.log_router 0;
    r.log_kind <- grow r.log_kind Trace.Ring;
    r.log_chased <- grow r.log_chased Id.zero
  end;
  let k = r.log_n in
  r.log_lookup.(k) <- i;
  r.log_router.(k) <- router;
  r.log_kind.(k) <- kind;
  r.log_chased.(k) <- chased;
  r.log_n <- k + 1

(* -- committed routes ---------------------------------------------------- *)

let route_done r i =
  match r.route_tail.(i) with
  | [] -> true
  | _ :: _ -> false

let commit_route net r i cur (p : Pointer.t) =
  match Sourceroute.hops p.Pointer.route with
  | hd :: rest when hd = cur ->
    r.route_tail.(i) <- rest;
    true
  | _ -> (
    (* Route does not start here (cached suffix mismatch): fall back to the
       network map — a cold path, allocation accepted. *)
    match Linkstate.path net.ls cur p.Pointer.dst_router with
    | Some (_ :: rest) ->
      r.route_tail.(i) <- rest;
      true
    | Some [] | None -> false)

(* One physical hop along the committed route: charge, count, accumulate
   latency, log.  The adjacency scan folds the static link check and the
   latency lookup into one alloc-free list walk. *)
let rec adj_step r i next = function
  | [] -> false
  | (w, l) :: tl ->
    if w = next then begin
      r.latency.(i) <- r.latency.(i) +. l;
      true
    end
    else adj_step r i next tl

let follow_one net r i =
  match r.route_tail.(i) with
  | [] ->
    (* Empty committed tail: blocked. *)
    finish_stuck r i;
    false
  | next :: rest ->
    let cur = r.pos.(i) in
    if adj_step r i next (Graph.neighbors net.graph cur) then begin
      Metrics.charge_hop_via net.metrics r.counter next;
      r.msgs.(i) <- r.msgs.(i) + 1;
      r.route_tail.(i) <- rest;
      r.pos.(i) <- next;
      r.guard.(i) <- r.guard.(i) + 1;
      log_hop r i next r.commit_kind.(i) r.commit_chased.(i);
      true
    end
    else begin
      finish_stuck r i;
      false
    end

(* -- stale-pointer NACK (cold path; emulated, deferred) ------------------ *)

let add_excl r i router kind id =
  let n = r.excl_n.(i) in
  if n < excl_cap then begin
    let at = (i * excl_cap) + n in
    r.excl_router.(at) <- router;
    r.excl_kind.(at) <- kind;
    r.excl_id.(at) <- id;
    r.excl_n.(i) <- n + 1
  end

let push_nack r cur owner chased =
  if r.nack_n >= Array.length r.nack_owner then begin
    r.nack_owner <- grow r.nack_owner 0;
    r.nack_cur <- grow r.nack_cur 0;
    r.nack_chased <- grow r.nack_chased Id.zero
  end;
  r.nack_owner.(r.nack_n) <- owner;
  r.nack_cur.(r.nack_n) <- cur;
  r.nack_chased.(r.nack_n) <- chased;
  r.nack_n <- r.nack_n + 1

(* Negative acknowledgement: the router that handed out a pointer to an
   identifier no longer resident at its target prunes it (the lazy probe
   repair of group tails, §4.1).  The teardown travels the SPF path back
   to the pointer's owner now; the prune itself is deferred. *)
let emit_nack net r i cur owner chased =
  (match Linkstate.path net.ls cur owner with
   | Some hops -> Charge.path net.metrics Msg.teardown hops
   | None -> ());
  add_excl r i owner ex_full chased;
  add_excl r i cur ex_cache chased;
  push_nack r cur owner chased;
  log_hop r i cur Trace.Backtrack chased

(* -- one iteration of the greedy loop ------------------------------------ *)

let step net r i =
  if r.guard.(i) > r.step_limit then begin
    finish_stuck r i;
    false
  end
  else begin
    let cur = r.pos.(i) in
    let owner = r.commit_owner.(i) in
    let exhausted_now = owner < 0 || route_done r i in
    if
      exhausted_now
      && r.restarts.(i) < restart_limit
      && owner >= 0
      && not (resident_alive_in r.commit_chased.(i) net.routers.(cur).residents)
    then begin
      (* Arrived where the chased identifier should live, but it is gone:
         stale pointer pruned (NACK), restart from here with a cleared
         horizon. *)
      emit_nack net r i cur owner r.commit_chased.(i);
      r.commit_owner.(i) <- -1;
      r.best_valid.(i) <- 0;
      r.restarts.(i) <- r.restarts.(i) + 1;
      r.guard.(i) <- r.guard.(i) + 1;
      true
    end
    else begin
      select net r i cur;
      if not r.sel_some then begin
        finish_stuck r i;
        false
      end
      else if r.sel_local then begin
        (* The closest known identifier is resident right here: the target
           itself, or (its successors all overshooting) its predecessor. *)
        finish_local r i r.sel_vn;
        false
      end
      else begin
        let cid = r.sel_id in
        let commit_now =
          if r.best_valid.(i) = 1 then Id.closer_clockwise ~target:r.target.(i) cid r.best.(i)
          else
            (* Cleared horizon: the register is [succ target], the unique
               identifier at maximal clockwise distance, so "strictly
               closer" is "distance to target below the ring maximum" —
               testable against the constant (zero, max_value) span without
               materialising the sentinel. *)
            Id.compare_dist cid r.target.(i) Id.zero Id.max_value < 0
        in
        if commit_now then begin
          let p = r.sel_ptr in
          r.commit_owner.(i) <- cur;
          r.commit_chased.(i) <- p.Pointer.dst;
          r.commit_kind.(i) <-
            (match p.Pointer.kind with
             | Pointer.Cached -> Trace.Cache
             | Pointer.Successor | Pointer.Predecessor | Pointer.Finger -> Trace.Ring);
          if commit_route net r i cur p then begin
            if follow_one net r i then begin
              r.best.(i) <- cid;
              r.best_valid.(i) <- 1;
              true
            end
            else false
          end
          else begin
            finish_stuck r i;
            false
          end
        end
        else if owner >= 0 && not (route_done r i) then
          (* Nothing closer here; keep following the committed route. *)
          follow_one net r i
        else begin
          finish_settle net r i cur;
          false
        end
      end
    end
  end

(* -- runs ------------------------------------------------------------------ *)

(* Start a run of [n] lookups: the step guard follows ring occupancy, the
   category cell is resolved afresh (a [Metrics.reset] drops old cells),
   and the hop log and NACK worklist restart ([lookup] applies its prunes
   before it returns; an {!Engine} run's are dropped here). *)
let begin_run net r n =
  ensure_capacity r n;
  r.n <- n;
  r.step_limit <-
    (match r.step_limit_override with
     | Some s -> s
     | None -> (4 * Graph.n net.graph) + (2 * Ring.cardinal net.oracle) + 16);
  r.counter <- Metrics.handle net.metrics r.category;
  r.log_n <- 0;
  r.nack_n <- 0

let load net r i ~from ~target =
  r.origin.(i) <- from;
  r.target.(i) <- target;
  r.pos.(i) <- from;
  r.best_valid.(i) <- 0;
  r.commit_owner.(i) <- -1;
  r.restarts.(i) <- 0;
  r.guard.(i) <- 0;
  r.msgs.(i) <- 0;
  r.latency.(i) <- 0.0;
  r.verdict.(i) <- running;
  r.route_tail.(i) <- [];
  r.excl_n.(i) <- 0;
  (* Injection: load at the origin, no message (Charge.inject's net). *)
  Metrics.charge_load net.metrics from

let drive net r =
  r.remaining <- r.n;
  r.passes <- 0;
  while r.remaining > 0 do
    r.passes <- r.passes + 1;
    for i = 0 to r.n - 1 do
      if r.verdict.(i) = running && not (step net r i) then r.remaining <- r.remaining - 1
    done
  done

(* Apply the deferred prunes: drop the owner's pointers to each chased
   identifier and evict it from the owner's and the detector's caches. *)
let apply_nacks net r =
  for k = 0 to r.nack_n - 1 do
    let owner = r.nack_owner.(k) and cur = r.nack_cur.(k) and chased = r.nack_chased.(k) in
    List.iter
      (fun (vn : Vnode.t) ->
        ignore (Vnode.drop_pointers_if vn (fun (p : Pointer.t) -> Id.equal p.Pointer.dst chased)))
      net.routers.(owner).residents;
    Pointer_cache.remove net.routers.(owner).cache chased;
    Pointer_cache.remove net.routers.(cur).cache chased
  done;
  r.nack_n <- 0

let status_of r i =
  match r.verdict.(i) with
  | 0 -> Delivered r.verdict_vn.(i)
  | 1 -> Predecessor r.verdict_vn.(i)
  | 2 -> Stuck r.pos.(i)
  | _ -> invalid_arg "Network: lookup still in flight"

(* [visited] and [trace] of lookup [i], built once from the hop log. *)
let result_of r i =
  let target = r.target.(i) in
  let visited = ref [] and trace = ref [] in
  for k = r.log_n - 1 downto 0 do
    if r.log_lookup.(k) = i then begin
      let router = r.log_router.(k) and kind = r.log_kind.(k) in
      (match kind with
       | Trace.Backtrack -> ()
       | Trace.Ring | Trace.Cache | Trace.Flood -> visited := router :: !visited);
      trace :=
        {
          Trace.kind;
          router;
          level = "intra";
          dist = Id.distance r.log_chased.(k) target;
        }
        :: !trace
    end
  done;
  {
    status = status_of r i;
    msgs = r.msgs.(i);
    latency_ms = r.latency.(i);
    visited = r.origin.(i) :: !visited;
    trace = !trace;
  }

let lookup ?exclude t ~from ~target ~category ~use_cache =
  let r = t.regs in
  r.category <- category;
  r.use_cache <- use_cache;
  (match exclude with
   | Some e ->
     r.exclude <- e;
     r.excluding <- true
   | None -> r.excluding <- false);
  begin_run t r 1;
  load t r 0 ~from ~target;
  drive t r;
  apply_nacks t r;
  result_of r 0

module Engine = struct
  type net = t

  type nonrec t = { net : net; regs : regs }

  let create ?step_limit net = { net; regs = make_regs ?step_limit () }

  let run e ~from ~targets =
    let n = Array.length targets in
    if Array.length from <> n then invalid_arg "Network.Engine.run: from/targets length mismatch";
    begin_run e.net e.regs n;
    for i = 0 to n - 1 do
      load e.net e.regs i ~from:from.(i) ~target:targets.(i)
    done;
    drive e.net e.regs

  let check e i =
    if i < 0 || i >= e.regs.n then invalid_arg "Network.Engine: lookup index out of batch"

  let batch_size e = e.regs.n
  let passes e = e.regs.passes

  let status e i =
    check e i;
    status_of e.regs i

  let result e i =
    check e i;
    result_of e.regs i

  let msgs e i = e.regs.msgs.(i)
  let latency_ms e i = e.regs.latency.(i)
  let restarts e i = e.regs.restarts.(i)
end

let find_vnode t id = Hashtbl.find_opt t.vnodes id

let resident_ids t idx =
  List.filter_map
    (fun (vn : Vnode.t) -> if vn.Vnode.alive then Some vn.Vnode.id else None)
    t.routers.(idx).residents

let ring_size t = Ring.cardinal t.oracle

let host_count t =
  Hashtbl.fold
    (fun _ (vn : Vnode.t) acc ->
      match vn.Vnode.host_class with
      | Vnode.Stable | Vnode.Ephemeral -> acc + 1
      | Vnode.Router_default -> acc)
    t.vnodes 0

let router_state_entries t idx =
  let r = t.routers.(idx) in
  List.fold_left
    (fun acc (vn : Vnode.t) -> if vn.Vnode.alive then acc + Vnode.state_entries vn else acc)
    (Hashtbl.length r.attachments) r.residents

let avg_router_state_entries t =
  let total = ref 0 in
  Array.iter (fun r -> total := !total + router_state_entries t r.idx) t.routers;
  float_of_int !total /. float_of_int (Array.length t.routers)

(* -- cache filling ------------------------------------------------------ *)

let cache_route_to t id dst_router visited =
  if t.cfg.cache_control_paths && t.cfg.cache_capacity > 0 then begin
    let rec go = function
      | [] -> ()
      | r :: rest as suffix ->
        if r <> dst_router then begin
          let route = Sourceroute.of_hops suffix in
          let p = Pointer.make Pointer.Cached ~dst:id ~dst_router ~route in
          Pointer_cache.insert t.routers.(r).cache p
        end;
        go rest
    in
    (* A suffix is a usable source route only if it ends at dst_router, and
       every suffix ends where [visited] does. *)
    match visited with
    | [] -> ()
    | _ :: _ ->
      if Sourceroute.destination (Sourceroute.of_hops visited) = dst_router then go visited
  end

(* -- repairs ------------------------------------------------------------ *)

(* Ring-walk to the first member that is alive and reachable from [vn]'s
   router: under a partition this yields the per-component ring the zero-ID
   protocol converges to (§3.2). *)
let oracle_successor_of t (vn : Vnode.t) =
  let r = t.oracle in
  let limit = Ring.cardinal r in
  (* One O(log n) search, then O(1) cursor steps over the dead/unreachable
     run — the seed re-ran a tree search per skipped member. *)
  let rec go c steps =
    if steps > limit || Ring.cursor_is_none c then None
    else begin
      let sid = Ring.id_at r c in
      if Id.equal sid vn.Vnode.id then None
      else begin
        let (sv : Vnode.t) = Ring.value_at r c in
        if sv.Vnode.alive && Linkstate.reachable t.ls vn.Vnode.hosted_at sv.Vnode.hosted_at
        then Some (sid, sv)
        else go (Ring.cursor_next r c) (steps + 1)
      end
    end
  in
  go (Ring.cursor_gt vn.Vnode.id r) 0

let oracle_predecessor_of t (vn : Vnode.t) =
  let r = t.oracle in
  let limit = Ring.cardinal r in
  let rec go c steps =
    if steps > limit || Ring.cursor_is_none c then None
    else begin
      let pid = Ring.id_at r c in
      if Id.equal pid vn.Vnode.id then None
      else begin
        let (pv : Vnode.t) = Ring.value_at r c in
        if pv.Vnode.alive && Linkstate.reachable t.ls vn.Vnode.hosted_at pv.Vnode.hosted_at
        then Some (pid, pv)
        else go (Ring.cursor_prev r c) (steps + 1)
      end
    end
  in
  go (Ring.cursor_lt vn.Vnode.id r) 0

let repair_successor t (vn : Vnode.t) =
  let alive (p : Pointer.t) =
    match find_vnode t p.Pointer.dst with
    | Some v -> v.Vnode.alive && Linkstate.reachable t.ls vn.Vnode.hosted_at v.Vnode.hosted_at
    | None -> false
  in
  let survivors = List.filter alive vn.Vnode.succs in
  match survivors with
  | (first : Pointer.t) :: _ ->
    (* Shift the successor group down (§3.2) and confirm with the new head. *)
    Vnode.set_succs vn survivors;
    let _ = charge_spf t Msg.repair vn.Vnode.hosted_at first.Pointer.dst_router in
    ()
  | [] ->
    (* Group exhausted: re-discover via the network map / ring walk. *)
    (match oracle_successor_of t vn with
     | Some (sid, (sv : Vnode.t)) ->
       (match
          make_pointer t Pointer.Successor ~from_router:vn.Vnode.hosted_at ~dst:sid
            ~dst_router:sv.Vnode.hosted_at
        with
        | Some p ->
          Vnode.set_succs vn [ p ];
          let _ = charge_spf t Msg.repair vn.Vnode.hosted_at sv.Vnode.hosted_at in
          let _ = charge_spf t Msg.repair sv.Vnode.hosted_at vn.Vnode.hosted_at in
          ()
        | None -> Vnode.set_succs vn [])
     | None -> Vnode.set_succs vn [])

let repair_predecessor t (vn : Vnode.t) =
  let alive (p : Pointer.t) =
    match find_vnode t p.Pointer.dst with
    | Some v -> v.Vnode.alive && Linkstate.reachable t.ls vn.Vnode.hosted_at v.Vnode.hosted_at
    | None -> false
  in
  let survivors = List.filter alive vn.Vnode.preds in
  match survivors with
  | _ :: _ -> Vnode.set_preds vn survivors
  | [] ->
    (match oracle_predecessor_of t vn with
     | Some (pid, (pv : Vnode.t)) ->
       (match
          make_pointer t Pointer.Predecessor ~from_router:vn.Vnode.hosted_at ~dst:pid
            ~dst_router:pv.Vnode.hosted_at
        with
        | Some p ->
          Vnode.set_preds vn [ p ];
          let _ = charge_spf t Msg.repair vn.Vnode.hosted_at pv.Vnode.hosted_at in
          ()
        | None -> Vnode.set_preds vn [])
     | None -> Vnode.set_preds vn [])

(* -- joins --------------------------------------------------------------- *)

type join_outcome = { vnode : Vnode.t; join_msgs : int; join_latency_ms : float }

let splice_stable t ~gateway (vn : Vnode.t) (pred : Vnode.t) =
  let msgs = ref 0 and latency = ref 0.0 in
  let pred_router = pred.Vnode.hosted_at in
  (* Reply from the predecessor carrying its successor list (becomes ours). *)
  let reply_hops, reply_lat = charge_spf t Msg.join_reply pred_router gateway in
  msgs := !msgs + reply_hops;
  latency := !latency +. reply_lat;
  let inherited =
    List.filter_map
      (fun (p : Pointer.t) ->
        if Id.equal p.Pointer.dst vn.Vnode.id then None
        else
          match find_vnode t p.Pointer.dst with
          | Some (sv : Vnode.t) when sv.Vnode.alive ->
            make_pointer t Pointer.Successor ~from_router:gateway ~dst:p.Pointer.dst
              ~dst_router:sv.Vnode.hosted_at
          | Some _ | None -> None)
      pred.Vnode.succs
  in
  Vnode.set_succs vn inherited;
  (* Trim to group size. *)
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  Vnode.set_succs vn (take t.cfg.succ_group_size vn.Vnode.succs);
  (* Predecessor adopts us as its first successor. *)
  (match
     make_pointer t Pointer.Successor ~from_router:pred_router ~dst:vn.Vnode.id
       ~dst_router:gateway
   with
   | Some p -> Vnode.add_succ pred p ~max_group:t.cfg.succ_group_size
   | None -> ());
  (* We adopt the predecessor. *)
  (match
     make_pointer t Pointer.Predecessor ~from_router:gateway ~dst:pred.Vnode.id
       ~dst_router:pred_router
   with
   | Some p -> Vnode.add_pred vn p ~max_group:t.cfg.pred_group_size
   | None -> ());
  (* Notify our successor to adopt us as predecessor. *)
  (match Vnode.first_succ vn with
   | Some (sp : Pointer.t) ->
     (match find_vnode t sp.Pointer.dst with
      | Some (sv : Vnode.t) ->
        let h1, l1 = charge_spf t Msg.join gateway sv.Vnode.hosted_at in
        let h2, _ = charge_spf t Msg.join_reply sv.Vnode.hosted_at gateway in
        msgs := !msgs + h1 + h2;
        latency := !latency +. l1;
        (match
           make_pointer t Pointer.Predecessor ~from_router:sv.Vnode.hosted_at
             ~dst:vn.Vnode.id ~dst_router:gateway
         with
         | Some p -> Vnode.add_pred sv p ~max_group:t.cfg.pred_group_size
         | None -> ())
      | None -> ())
   | None -> ());
  (!msgs, !latency)

let join_host t ~gateway ~id ~cls =
  if gateway < 0 || gateway >= Array.length t.routers then
    invalid_arg "Network.join_host: bad gateway";
  if not (Linkstate.router_alive t.ls gateway) then Error "gateway router is down"
  else if Hashtbl.mem t.vnodes id then Error "identifier already resident"
  else begin
    let r = t.routers.(gateway) in
    match Identity.admit r.auditor id with
    | Error e -> Error e
    | Ok () ->
      let vn = Vnode.create id cls ~hosted_at:gateway in
      let res = lookup t ~from:gateway ~target:id ~category:Msg.join ~use_cache:true in
      (match res.status with
       | Stuck _ ->
         Identity.release r.auditor id;
         Error "join lookup stuck (network partitioned?)"
       | Delivered _ ->
         Identity.release r.auditor id;
         Error "identifier already present in ring"
       | Predecessor pred ->
         Log.debug (fun m ->
             m "join %s at router %d (pred %s)" (Id.to_short_string id) gateway
               (Id.to_short_string pred.Vnode.id));
         r.residents <- vn :: r.residents;
         Hashtbl.replace t.vnodes id vn;
         let msgs = ref res.msgs and latency = ref res.latency_ms in
         (match cls with
          | Vnode.Ephemeral ->
            (* Only a path between the ephemeral host and its predecessor
               (§2.2): the predecessor's router keeps the attachment. *)
            let pred_router = pred.Vnode.hosted_at in
            (match
               make_pointer t Pointer.Predecessor ~from_router:gateway ~dst:pred.Vnode.id
                 ~dst_router:pred_router
             with
             | Some p -> Vnode.set_preds vn [ p ]
             | None -> ());
            Hashtbl.replace t.routers.(pred_router).attachments id gateway;
            let h, l = charge_spf t Msg.join_reply pred_router gateway in
            msgs := !msgs + h;
            latency := !latency +. l
          | Vnode.Stable | Vnode.Router_default ->
            t.oracle <- Ring.add id vn t.oracle;
            let m, l = splice_stable t ~gateway vn pred in
            msgs := !msgs + m;
            latency := !latency +. l;
            (* Control-path caching: the forward walk saw the predecessor's
               identifier; the reply path saw ours. *)
            cache_route_to t pred.Vnode.id pred.Vnode.hosted_at res.visited;
            (match Linkstate.path t.ls pred.Vnode.hosted_at gateway with
             | Some reply_path -> cache_route_to t id gateway reply_path
             | None -> ()));
         Ok { vnode = vn; join_msgs = !msgs; join_latency_ms = !latency })
  end

let join_fresh_host t ~gateway ~cls =
  let kp = Identity.generate t.rng in
  let id = Identity.id_of_keypair kp in
  let auth =
    if t.cfg.authenticate_joins then
      Identity.authenticate t.rng ~claimed_id:id (Identity.public kp) (fun c ->
          Identity.respond kp c)
    else Ok ()
  in
  match auth with
  | Error e -> Error e
  | Ok () ->
    (match join_host t ~gateway ~id ~cls with
     | Ok outcome -> Ok (id, outcome)
     | Error e -> Error e)

(* -- graceful leave ------------------------------------------------------ *)

let leave_host t id =
  match find_vnode t id with
  | None -> Error "no such identifier"
  | Some vn when Vnode.is_default vn -> Error "cannot remove a router's default vnode"
  | Some vn ->
    let gateway = vn.Vnode.hosted_at in
    (* Tear-down messages to every successor and predecessor (§3.2). *)
    let notify (p : Pointer.t) =
      let _ = charge_spf t Msg.teardown gateway p.Pointer.dst_router in
      ()
    in
    List.iter notify vn.Vnode.succs;
    List.iter notify vn.Vnode.preds;
    Log.debug (fun m -> m "leave %s from router %d" (Id.to_short_string id) gateway);
    vn.Vnode.alive <- false;
    Hashtbl.remove t.vnodes id;
    t.oracle <- Ring.remove id t.oracle;
    let r = t.routers.(gateway) in
    r.residents <- List.filter (fun (v : Vnode.t) -> not (Id.equal v.Vnode.id id)) r.residents;
    Identity.release r.auditor id;
    (* Ephemeral attachment cleanup at the predecessor. *)
    (match vn.Vnode.preds with
     | (p : Pointer.t) :: _ -> Hashtbl.remove t.routers.(p.Pointer.dst_router).attachments id
     | [] -> ());
    (* Directed flood clearing cached state for this identifier. *)
    Array.iter
      (fun r' ->
        if Pointer_cache.mem r'.cache id then begin
          let _ = charge_spf t Msg.directed_flood gateway r'.idx in
          Pointer_cache.remove r'.cache id
        end)
      t.routers;
    (* Neighbours repair around the gap.  Tear-downs go to every ring
       member that may hold group state for the departed identifier — the
       [succ_group_size] members counter-clockwise and [pred_group_size]
       members clockwise (the "routers holding predecessors of ida" of
       §3.2) — and the message carries the departed vnode's own
       successor/predecessor lists so the immediate neighbours learn members
       only it knew about before shifting their groups. *)
    let collect step k =
      let rec go acc cur k =
        if k = 0 then List.rev acc
        else
          match step cur t.oracle with
          | Some (nid, (nv : Vnode.t)) when not (Id.equal nid id) ->
            if List.exists (fun (v : Vnode.t) -> Id.equal v.Vnode.id nid) acc then
              List.rev acc
            else go (nv :: acc) nid (k - 1)
          | Some _ | None -> List.rev acc
      in
      go [] id k
    in
    let ccw = collect Ring.predecessor t.cfg.succ_group_size in
    let cw = collect Ring.successor t.cfg.pred_group_size in
    let is_dead (p : Pointer.t) = Id.equal p.Pointer.dst id in
    List.iter
      (fun (pv : Vnode.t) ->
        let head_was_dead =
          match Vnode.first_succ pv with
          | Some (p : Pointer.t) -> Id.equal p.Pointer.dst id
          | None -> false
        in
        let dropped = Vnode.drop_pointers_if pv is_dead in
        if dropped > 0 || head_was_dead then begin
          let _ = charge_spf t Msg.teardown gateway pv.Vnode.hosted_at in
          (* Hand over the departed vnode's successors. *)
          List.iter
            (fun (sp : Pointer.t) ->
              match find_vnode t sp.Pointer.dst with
              | Some (sv : Vnode.t) when sv.Vnode.alive ->
                (match
                   make_pointer t Pointer.Successor ~from_router:pv.Vnode.hosted_at
                     ~dst:sp.Pointer.dst ~dst_router:sv.Vnode.hosted_at
                 with
                 | Some fresh -> Vnode.add_succ pv fresh ~max_group:t.cfg.succ_group_size
                 | None -> ())
              | Some _ | None -> ())
            vn.Vnode.succs;
          if head_was_dead then repair_successor t pv
        end)
      ccw;
    List.iter
      (fun (sv : Vnode.t) ->
        let head_was_dead =
          match Vnode.first_pred sv with
          | Some (p : Pointer.t) -> Id.equal p.Pointer.dst id
          | None -> false
        in
        let dropped = Vnode.drop_pointers_if sv is_dead in
        if dropped > 0 || head_was_dead then begin
          let _ = charge_spf t Msg.teardown gateway sv.Vnode.hosted_at in
          List.iter
            (fun (pp : Pointer.t) ->
              match find_vnode t pp.Pointer.dst with
              | Some (pv : Vnode.t) when pv.Vnode.alive ->
                (match
                   make_pointer t Pointer.Predecessor ~from_router:sv.Vnode.hosted_at
                     ~dst:pp.Pointer.dst ~dst_router:pv.Vnode.hosted_at
                 with
                 | Some fresh -> Vnode.add_pred sv fresh ~max_group:t.cfg.pred_group_size
                 | None -> ())
              | Some _ | None -> ())
            vn.Vnode.preds;
          if head_was_dead then repair_predecessor t sv
        end)
      cw;
    Ok ()

(* -- partition merge ----------------------------------------------------- *)

let rejoin_ring t (vn : Vnode.t) ~category =
  let gateway = vn.Vnode.hosted_at in
  let res =
    lookup ~exclude:vn.Vnode.id t ~from:gateway ~target:vn.Vnode.id ~category
      ~use_cache:true
  in
  match res.status with
  | Predecessor pred when not (Id.equal pred.Vnode.id vn.Vnode.id) ->
    Vnode.set_succs vn [];
    Vnode.set_preds vn [];
    let m, _ = splice_stable t ~gateway vn pred in
    res.msgs + m
  | Predecessor _ | Delivered _ | Stuck _ -> res.msgs

(* Ring-order stabilisation: the zero-ID repairs its successor, "who in turn
   repair their successors, and so on until the rings are merged" (§3.2).
   Every member whose successor pointer disagrees with the per-component
   expectation re-points, charging one round trip; groups are pruned of dead
   entries.  Returns messages charged. *)
let stabilize t ~category =
  let before = Metrics.total t.metrics in
  let members = Ring.to_list t.oracle in
  List.iter
    (fun (_, (vn : Vnode.t)) ->
      if vn.Vnode.alive then begin
        let dead (p : Pointer.t) =
          Id.equal p.Pointer.dst vn.Vnode.id
          ||
          match find_vnode t p.Pointer.dst with
          | Some (dv : Vnode.t) ->
            (not dv.Vnode.alive)
            || not (Linkstate.reachable t.ls vn.Vnode.hosted_at dv.Vnode.hosted_at)
          | None -> true
        in
        ignore (Vnode.drop_pointers_if vn dead);
        match oracle_successor_of t vn with
        | None -> ()
        | Some (sid, (sv : Vnode.t)) ->
          let ok =
            match Vnode.first_succ vn with
            | Some (p : Pointer.t) -> Id.equal p.Pointer.dst sid
            | None -> false
          in
          if not ok then begin
            (match
               make_pointer t Pointer.Successor ~from_router:vn.Vnode.hosted_at ~dst:sid
                 ~dst_router:sv.Vnode.hosted_at
             with
             | Some p ->
               Vnode.add_succ vn p ~max_group:t.cfg.succ_group_size;
               let _ = charge_spf t category vn.Vnode.hosted_at sv.Vnode.hosted_at in
               let _ = charge_spf t category sv.Vnode.hosted_at vn.Vnode.hosted_at in
               (match
                  make_pointer t Pointer.Predecessor ~from_router:sv.Vnode.hosted_at
                    ~dst:vn.Vnode.id ~dst_router:vn.Vnode.hosted_at
                with
                | Some bp -> Vnode.add_pred sv bp ~max_group:t.cfg.pred_group_size
                | None -> ())
             | None -> ())
          end
      end)
    members;
  Metrics.total t.metrics - before

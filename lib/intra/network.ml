module Id = Rofl_idspace.Id
module Ring = Rofl_idspace.Ring
module Vnode = Rofl_core.Vnode
module Pointer = Rofl_core.Pointer
module Pointer_cache = Rofl_core.Pointer_cache
module Sourceroute = Rofl_core.Sourceroute
module Msg = Rofl_core.Msg
module Graph = Rofl_topology.Graph
module Linkstate = Rofl_linkstate.Linkstate
module Metrics = Rofl_netsim.Metrics
module Walk = Rofl_routing.Walk
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

type candidate = Local of Vnode.t | Remote of Pointer.t

let candidate_id = function
  | Local vn -> vn.Vnode.id
  | Remote (p : Pointer.t) -> p.Pointer.dst

(* The walk moves ONE physical hop at a time: Algorithm 2's route() runs at
   every router a message transits, so transit routers can shortcut through
   their own residents and pointer caches.  The greedy loop itself —
   closest-without-overshoot ranking, strictly-closer replacement of the
   committed source route, stale-pointer NACK/restart, step guard — lives in
   {!Rofl_routing.Walk}; this substrate supplies the router-granularity
   state: candidate enumeration, source-route commits, per-link charging. *)
module Lookup_substrate = struct
  type st = {
    net : t;
    target : Id.t;
    category : string;
    use_cache : bool;
    exclude : Id.t option;
    step_limit : int;
    mutable msgs : int;
    mutable latency : float;
    mutable rev_visited : int list;
    (* Router that handed out the committed pointer and the identifier it
       chases: the NACK addressee when the pointer turns out stale. *)
    mutable commit_src : (int * Id.t) option;
    mutable commit_kind : Trace.kind;
    mutable commit_dist : Id.t;
    tracer : Trace.builder;
  }

  type pos = int
  type cand = candidate
  type route = int list
  type verdict = lookup_result

  let max_steps st = st.step_limit
  let restart_limit _ = 4
  let horizon = `Persistent
  let arrived _ _ = None
  let prepare _ cur = cur

  let finish st status =
    {
      status;
      msgs = st.msgs;
      latency_ms = st.latency;
      visited = List.rev st.rev_visited;
      trace = Trace.events st.tracer;
    }

  let resident_alive st cur id =
    List.exists
      (fun (vn : Vnode.t) -> vn.Vnode.alive && Id.equal vn.Vnode.id id)
      st.net.routers.(cur).residents

  (* Negative acknowledgement: the router that handed out a pointer to an
     identifier no longer resident at its target prunes it (the lazy probe
     repair of group tails, §4.1). *)
  let nack st cur owner chased =
    let t = st.net in
    let _ = charge_spf t Msg.teardown cur owner in
    List.iter
      (fun (vn : Vnode.t) ->
        ignore
          (Vnode.drop_pointers_if vn (fun (p : Pointer.t) -> Id.equal p.Pointer.dst chased)))
      t.routers.(owner).residents;
    Pointer_cache.remove t.routers.(owner).cache chased;
    Pointer_cache.remove t.routers.(cur).cache chased

  let stale_commit st cur =
    match st.commit_src with
    | Some (owner, chased) when not (resident_alive st cur chased) ->
      (* Arrived where the chased identifier should live, but it is gone:
         stale pointer. *)
      nack st cur owner chased;
      Trace.record st.tracer ~kind:Trace.Backtrack ~router:cur ~level:"intra"
        ~dist:(Id.distance chased st.target);
      st.commit_src <- None;
      true
    | Some _ | None -> false

  let target st = st.target
  let cand_id _st c = candidate_id c

  (* Enumeration order encodes tie precedence for {!Walk.best}: residents
     (and their successor pointers) first, the cache shortcut last. *)
  let candidates st cur =
    let t = st.net in
    let r = t.routers.(cur) in
    (* Pointer routes are recorded from links actually traversed (or SPF
       paths), so consecutive pairs are always graph links: with no failure
       outstanding they are valid by construction and the per-hop scan can
       be skipped. *)
    let healthy = Linkstate.healthy t.ls in
    let route_valid route = healthy || Sourceroute.is_valid t.ls route in
    let excluded id = match st.exclude with Some e -> Id.equal e id | None -> false in
    let acc = ref [] in
    let consider c = if not (excluded (candidate_id c)) then acc := c :: !acc in
    List.iter
      (fun (vn : Vnode.t) ->
        if vn.Vnode.alive then begin
          (* Ephemeral identifiers never serve as ring hops (§2.2); they are
             only candidates when they are the packet's own destination. *)
          let routable =
            match vn.Vnode.host_class with
            | Vnode.Stable | Vnode.Router_default -> true
            | Vnode.Ephemeral -> Id.equal vn.Vnode.id st.target
          in
          if routable then consider (Local vn);
          List.iter
            (fun (p : Pointer.t) ->
              (* Same-router pointers are covered by Local candidates (or are
                 stale); a remote candidate must actually lead elsewhere. *)
              if p.Pointer.dst_router <> r.idx && route_valid p.Pointer.route
              then consider (Remote p))
            vn.Vnode.succs
        end)
      r.residents;
    if st.use_cache then begin
      let c = Pointer_cache.best_match r.cache ~cur:st.target ~target:st.target in
      if not (Pointer_cache.Cursor.is_none c) then begin
        let p = Pointer_cache.Cursor.value_at r.cache c in
        if p.Pointer.dst_router <> r.idx && route_valid p.Pointer.route then
          consider (Remote p)
      end
    end;
    List.rev !acc

  let deliver_here st _cur = function
    | Local vn when Id.equal vn.Vnode.id st.target -> Some (finish st (Delivered vn))
    | Local vn ->
      (* The closest known identifier is resident right here and its
         successors all overshoot: this vnode is the predecessor. *)
      Some (finish st (Predecessor vn))
    | Remote _ -> None

  let commit st cur = function
    | Local _ -> None (* unreachable: deliver_here terminates on locals *)
    | Remote (p : Pointer.t) ->
      st.commit_src <- Some (cur, p.Pointer.dst);
      st.commit_kind <-
        (match p.Pointer.kind with
         | Pointer.Cached -> Trace.Cache
         | Pointer.Successor | Pointer.Predecessor | Pointer.Finger -> Trace.Ring);
      st.commit_dist <- Id.distance p.Pointer.dst st.target;
      (match Sourceroute.hops p.Pointer.route with
       | hd :: rest when hd = cur -> Some rest
       | _ ->
         (* Route does not start here (cached suffix mismatch): fall back to
            the network map. *)
         (match Linkstate.path st.net.ls cur p.Pointer.dst_router with
          | Some (_ :: rest) -> Some rest
          | Some [] | None -> None))

  let exhausted = function [] -> true | _ :: _ -> false

  let follow st cur = function
    | next :: rest when Graph.has_link st.net.graph cur next ->
      Charge.hop st.net.metrics st.category next;
      st.msgs <- st.msgs + 1;
      st.latency <- st.latency +. Graph.latency st.net.graph cur next;
      st.rev_visited <- next :: st.rev_visited;
      Trace.record st.tracer ~kind:st.commit_kind ~router:next ~level:"intra"
        ~dist:st.commit_dist;
      Walk.Stepped (next, rest)
    | _ :: _ | [] -> Walk.Blocked

  let no_candidate st cur = finish st (Stuck cur)
  let stuck st cur = finish st (Stuck cur)

  (* Recovery exhausted: settle for the best local member. *)
  let settle st cur =
    let eligible =
      List.filter
        (fun (vn : Vnode.t) ->
          vn.Vnode.alive
          && (match vn.Vnode.host_class with
             | Vnode.Ephemeral -> Id.equal vn.Vnode.id st.target
             | Vnode.Stable | Vnode.Router_default -> true)
          &&
          match st.exclude with Some e -> not (Id.equal e vn.Vnode.id) | None -> true)
        st.net.routers.(cur).residents
    in
    match
      Walk.best ~target:st.target ~id_of:(fun (vn : Vnode.t) -> vn.Vnode.id) eligible
    with
    | Some vn when Id.equal vn.Vnode.id st.target -> finish st (Delivered vn)
    | Some vn -> finish st (Predecessor vn)
    | None -> finish st (Stuck cur)
end

module Lookup_walk = Walk.Make (Lookup_substrate)

let lookup ?exclude t ~from ~target ~category ~use_cache =
  let st =
    {
      Lookup_substrate.net = t;
      target;
      category;
      use_cache;
      exclude;
      step_limit = (4 * Graph.n t.graph) + (2 * Ring.cardinal t.oracle) + 16;
      msgs = 0;
      latency = 0.0;
      rev_visited = [ from ];
      commit_src = None;
      commit_kind = Trace.Ring;
      commit_dist = Id.max_value;
      tracer = Trace.builder ();
    }
  in
  Charge.inject t.metrics category from;
  Lookup_walk.run st ~start:from

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

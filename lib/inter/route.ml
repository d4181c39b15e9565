module Id = Rofl_idspace.Id
module Ring = Rofl_idspace.Ring
module Prng = Rofl_util.Prng
module Asgraph = Rofl_asgraph.Asgraph
module Policy = Rofl_asgraph.Policy
module Walk = Rofl_routing.Walk
module Charge = Rofl_routing.Charge
module Trace = Rofl_routing.Trace
module Pointer = Rofl_core.Pointer
module Pointer_cache = Rofl_core.Pointer_cache
module Msg = Rofl_core.Msg

type result = {
  delivered : bool;
  as_hops : int;
  as_path : int list;
  pointer_hops : int;
  cache_hops : int;
  peer_crossings : int;
  backtracks : int;
  max_level_breadth : int;
  trace : Trace.t;
}

(* Closest live resident of [as_idx] in the clockwise interval (pos, dst]:
   [dst] itself when resident, otherwise its ring predecessor.  Cursor-based
   so the per-step [prepare] probe allocates nothing on a miss. *)
let best_local_resident (t : Net.t) as_idx ~pos ~dst =
  let r = !(t.Net.resident_rings.(as_idx)) in
  let c =
    let cf = Ring.cursor_find dst r in
    if Ring.cursor_is_none cf then Ring.cursor_lt dst r else cf
  in
  if Ring.cursor_is_none c then None
  else begin
    let mid = Ring.id_at r c in
    let mh = Ring.value_at r c in
    if mh.Net.alive_h && Id.between_incl pos mid dst then Some (mid, mh) else None
  end

(* Best candidate at the lowest usable level of [h]'s joined set: the level
   successor, improved by any finger at the same level.

   Levels whose subtree contains the destination (a test the per-subtree
   host summaries of §2.3 answer) are preferred bottom-up — once inside the
   smallest destination-containing subtree the packet never leaves it, which
   is the isolation property.  Only when no joined level contains the
   destination (wrong branch of the hierarchy) does the walk fall back to
   the lowest level making any clockwise progress. *)
let lowest_level_candidate (t : Net.t) (h : Net.host) ~cur ~pos ~dst ~ceiling =
  let candidate_at level =
    let r = Net.ring t level in
    let succ_cand =
      let c = Ring.cursor_gt pos r in
      if Ring.cursor_is_none c then None
      else begin
        let sid = Ring.id_at r c in
        let sh = Ring.value_at r c in
        if sh.Net.alive_h && Id.between_incl pos sid dst then Some (sid, sh) else None
      end
    in
    (* Fused keep-first ranking (same tie precedence as {!Walk.best} over
       successor-then-fingers): an eligible finger replaces the incumbent
       only when strictly closer to [dst]. *)
    let best =
      List.fold_left
        (fun acc (flevel, fid) ->
          if not (Level.equal flevel level) then acc
          else
            match Hashtbl.find_opt t.Net.hosts fid with
            | Some fh when fh.Net.alive_h && Id.between_incl pos fid dst -> (
              match acc with
              | Some (bid, _) when not (Id.closer_clockwise ~target:dst fid bid) -> acc
              | Some _ | None -> Some (fid, fh))
            | Some _ | None -> acc)
        succ_cand h.Net.fingers
    in
    match best with Some (cid, ch) -> Some (level, cid, ch) | None -> None
  in
  let rec scan = function
    | [] -> None
    | level :: rest ->
      (match candidate_at level with Some c -> Some c | None -> scan rest)
  in
  let levels = Net.as_levels t cur in
  let containing =
    List.filter
      (fun level ->
        Level.subsumes t.Net.ctx ~outer:ceiling ~inner:level
        && Ring.mem dst (Net.ring t level))
      levels
  in
  match scan containing with
  | Some (level, cid, ch) -> Some (level, cid, ch, true)
  | None ->
    (match scan levels with
     | Some (level, cid, ch) -> Some (level, cid, ch, false)
     | None -> None)

(* Cache shortcut, guarded so it can never violate isolation: if the
   destination is below this AS the bloom filter necessarily says so (no
   false negatives) and the cache is bypassed (§4.1). *)
let cache_candidate (t : Net.t) as_idx ~pos ~dst =
  if t.Net.cfg.Net.cache_capacity = 0 then None
  else begin
    let dst_below =
      match Net.locate t dst with
      | Some home -> Asgraph.in_cone (Level.graph t.Net.ctx) ~root:as_idx home
      | None -> false
    in
    let fp_conservatism =
      t.Net.cfg.Net.peering_mode = Net.Bloom_filters
      && Prng.float t.Net.rng 1.0 < t.Net.cfg.Net.bloom_fpr
    in
    if dst_below || fp_conservatism then None
    else
      let cache = t.Net.caches.(as_idx) in
      let c = Pointer_cache.best_match cache ~cur:pos ~target:dst in
      if Pointer_cache.Cursor.is_none c then None
      else begin
        let p = Pointer_cache.Cursor.value_at cache c in
        match Hashtbl.find_opt t.Net.hosts p.Pointer.dst with
        | Some ch when ch.Net.alive_h && ch.Net.home_as = p.Pointer.dst_router
                       && Id.between_incl pos p.Pointer.dst dst ->
          Some (p.Pointer.dst, ch)
        | Some _ | None ->
          Pointer_cache.remove cache p.Pointer.dst;
          None
      end
  end

let charge_move (t : Net.t) level a b =
  match Level.route_within t.Net.ctx level a b with
  | Some (0, _) -> Some (0, [])
  | Some (d, path) ->
    Charge.span t.Net.metrics Msg.data ~hops:d path;
    (match path with
     | [] -> Some (d, [])
     | _ :: tail -> Some (d, tail))
  | None -> None

let charge_unrestricted (t : Net.t) a b =
  charge_move t Level.Root a b

(* The greedy loop — candidate ranking, per-move commit, step guard — lives
   in {!Rofl_routing.Walk}; this substrate supplies the AS-granularity
   state.  One Walk step is one pointer traversal: a level-restricted ring
   move (possibly diverted mid-path over a bloom peering link, §4.2) or an
   unrestricted cache shortcut.  Position lives in the state record (the
   packet's AS, ring position, and position host move together). *)
module Route_substrate = struct
  type st = {
    net : Net.t;
    dst : Id.t;
    mutable cur : int;
    mutable pos : Id.t;
    mutable pos_host : Net.host;
    mutable as_hops : int;
    mutable pointer_hops : int;
    mutable cache_hops : int;
    mutable peer_crossings : int;
    mutable backtracks : int;
    mutable max_breadth : int;
    mutable rev_path : int list;
    mutable ceiling : Level.t;
    tried_peers : (int * int, unit) Hashtbl.t;
    tracer : Trace.builder;
  }

  type pos = unit

  type cand =
    | Ring_move of Level.t * Id.t * Net.host * bool  (** level, id, host, narrows *)
    | Cache_move of Id.t * Net.host

  type route = cand
  type verdict = result

  (* The seed guard admitted 4096 working iterations; [run] counts from 0. *)
  let max_steps _ = 4095
  let restart_limit _ = 0
  let horizon = `Per_move
  let stale_commit _ _ = false
  let exhausted _ = true

  let finish st delivered =
    {
      delivered;
      as_hops = st.as_hops;
      as_path = List.rev st.rev_path;
      pointer_hops = st.pointer_hops;
      cache_hops = st.cache_hops;
      peer_crossings = st.peer_crossings;
      backtracks = st.backtracks;
      max_level_breadth = st.max_breadth;
      trace = Trace.events st.tracer;
    }

  let extend_path st tail = List.iter (fun a -> st.rev_path <- a :: st.rev_path) tail

  let arrived st () =
    if Net.locate st.net st.dst = Some st.cur then Some (finish st true) else None

  (* Free intra-AS move to the closest local resident. *)
  let prepare st () =
    (match best_local_resident st.net st.cur ~pos:st.pos ~dst:st.dst with
     | Some (mid, mh) when not (Id.equal mid st.pos) ->
       st.pos <- mid;
       st.pos_host <- mh
     | Some _ | None -> ());
    ()

  (* Ring candidate first, cache shortcut last: under {!Walk.best}'s
     keep-first ranking a cached pointer overrides the ring candidate only
     when strictly closer. *)
  let candidates st () =
    let ring =
      match
        lowest_level_candidate st.net st.pos_host ~cur:st.cur ~pos:st.pos ~dst:st.dst
          ~ceiling:st.ceiling
      with
      | Some (level, cid, ch, narrows) -> [ Ring_move (level, cid, ch, narrows) ]
      | None -> []
    in
    let cache =
      match cache_candidate st.net st.cur ~pos:st.pos ~dst:st.dst with
      | Some (cid, ch) -> [ Cache_move (cid, ch) ]
      | None -> []
    in
    ring @ cache

  let target st = st.dst

  let cand_id _st = function
    | Ring_move (_, cid, _, _) -> cid
    | Cache_move (cid, _) -> cid

  let deliver_here _ () _ = None
  let commit _ () c = Some c

  (* Bloom-filter peering (§4.2): consult the peers' filters; a hit crosses
     the peering link and descends, a false positive backtracks. *)
  let try_peers st =
    let t = st.net in
    let g = Level.graph t.Net.ctx in
    let peers = Asgraph.peers g st.cur in
    let rec attempt = function
      | [] -> None
      | p :: rest ->
        if Hashtbl.mem st.tried_peers (st.cur, p) || not (Net.as_alive t p) then
          attempt rest
        else begin
          Hashtbl.add st.tried_peers (st.cur, p) ();
          if Net.bloom_check t p st.dst then begin
            (* Cross the peering link. *)
            Charge.hop t.Net.metrics Msg.data p;
            st.as_hops <- st.as_hops + 1;
            st.peer_crossings <- st.peer_crossings + 1;
            st.rev_path <- p :: st.rev_path;
            Trace.record st.tracer ~kind:Trace.Flood ~router:p ~level:"peer"
              ~dist:(Id.distance st.pos st.dst);
            let really_below =
              match Net.locate t st.dst with
              | Some home -> Asgraph.in_cone g ~root:p home
              | None -> false
            in
            if really_below then begin
              (* Descend within the peer's subtree to the destination. *)
              match Net.locate t st.dst with
              | Some home ->
                (match charge_move t (Level.Real p) p home with
                 | Some (d, tail) ->
                   st.as_hops <- st.as_hops + d;
                   extend_path st tail;
                   st.cur <- home;
                   Some (finish st true)
                 | None -> Some (finish st false))
              | None -> Some (finish st false)
            end
            else begin
              (* False positive: the packet comes back over the peering
                 link and continues (§4.2). *)
              Charge.hop t.Net.metrics Msg.data st.cur;
              st.as_hops <- st.as_hops + 1;
              st.backtracks <- st.backtracks + 1;
              st.rev_path <- st.cur :: st.rev_path;
              Trace.record st.tracer ~kind:Trace.Backtrack ~router:st.cur ~level:"peer"
                ~dist:(Id.distance st.pos st.dst);
              attempt rest
            end
          end
          else attempt rest
        end
    in
    attempt peers

  (* Transit-AS bloom checks (§4.2): as a move's packet passes through an
     AS, that AS may consult its peers' filters and divert the packet over
     the peering link; a false positive sends it back onto its path. *)
  let transit_divert st path_tail =
    let t = st.net in
    if t.Net.cfg.Net.peering_mode <> Net.Bloom_filters then None
    else begin
      let g = Level.graph t.Net.ctx in
      let dst_home = Net.locate t st.dst in
      (* Only the ascent of the move consults peers: after crossing, a
         packet may not go back up the hierarchy (§4.2), so checks beyond
         the path's peak are moot. *)
      let rec scan_as budget remaining =
        match remaining with
        | [] -> None
        | _ when budget = 0 -> None
        | a :: rest ->
          let rec scan_peers = function
            | [] -> scan_as (budget - 1) rest
            | p :: more ->
              if Hashtbl.mem st.tried_peers (a, p) || not (Net.as_alive t p) then
                scan_peers more
              else begin
                Hashtbl.add st.tried_peers (a, p) ();
                if Net.bloom_check t p st.dst then begin
                  Charge.hop t.Net.metrics Msg.data p;
                  st.as_hops <- st.as_hops + 1;
                  st.peer_crossings <- st.peer_crossings + 1;
                  Trace.record st.tracer ~kind:Trace.Flood ~router:p ~level:"peer"
                    ~dist:(Id.distance st.pos st.dst);
                  let really_below =
                    match dst_home with
                    | Some home -> Asgraph.in_cone g ~root:p home
                    | None -> false
                  in
                  if really_below then Some (a, p)
                  else begin
                    (* False positive: back over the peering link. *)
                    Charge.hop t.Net.metrics Msg.data a;
                    st.as_hops <- st.as_hops + 1;
                    st.backtracks <- st.backtracks + 1;
                    Trace.record st.tracer ~kind:Trace.Backtrack ~router:a ~level:"peer"
                      ~dist:(Id.distance st.pos st.dst);
                    scan_peers more
                  end
                end
                else scan_peers more
              end
          in
          scan_peers (Asgraph.peers g a)
      in
      scan_as 2 path_tail
    end

  let follow st () c =
    match c with
    | Cache_move (cid, ch) ->
      (match charge_unrestricted st.net st.cur ch.Net.home_as with
       | None -> Walk.Blocked
       | Some (d, tail) ->
         st.as_hops <- st.as_hops + d;
         extend_path st tail;
         st.pointer_hops <- st.pointer_hops + 1;
         st.cache_hops <- st.cache_hops + 1;
         st.ceiling <- Level.Root;
         st.cur <- ch.Net.home_as;
         st.pos <- cid;
         st.pos_host <- ch;
         Trace.record st.tracer ~kind:Trace.Cache ~router:ch.Net.home_as
           ~level:(Level.to_string Level.Root) ~dist:(Id.distance cid st.dst);
         Walk.Stepped ((), c))
    | Ring_move (level, cid, ch, narrows) ->
      (* Before taking a root-level (blind) move in bloom-filter mode,
         consult the peers' filters. *)
      let peer_shortcut =
        if st.net.Net.cfg.Net.peering_mode = Net.Bloom_filters then
          match level with
          | Level.Root -> try_peers st
          | Level.Real _ | Level.Peer_group _ -> None
        else None
      in
      (match peer_shortcut with
       | Some r -> Walk.Finished r
       | None ->
         (match charge_move st.net level st.cur ch.Net.home_as with
          | None -> Walk.Blocked
          | Some (d, tail) ->
            st.as_hops <- st.as_hops + d;
            extend_path st tail;
            st.pointer_hops <- st.pointer_hops + 1;
            st.max_breadth <- max st.max_breadth (Level.breadth st.net.Net.ctx level);
            (match transit_divert st tail with
             | Some (_via, p) ->
               st.rev_path <- p :: st.rev_path;
               (match Net.locate st.net st.dst with
                | Some home ->
                  (match charge_move st.net (Level.Real p) p home with
                   | Some (dd, dtail) ->
                     st.as_hops <- st.as_hops + dd;
                     extend_path st dtail;
                     st.cur <- home;
                     Walk.Finished (finish st true)
                   | None -> Walk.Finished (finish st false))
                | None -> Walk.Finished (finish st false))
             | None ->
               st.cur <- ch.Net.home_as;
               st.pos <- cid;
               st.pos_host <- ch;
               if narrows then st.ceiling <- level;
               Trace.record st.tracer ~kind:Trace.Ring ~router:ch.Net.home_as
                 ~level:(Level.to_string level) ~dist:(Id.distance cid st.dst);
               Walk.Stepped ((), c))))

  let no_candidate st () =
    if st.net.Net.cfg.Net.peering_mode = Net.Bloom_filters then
      match try_peers st with Some r -> r | None -> finish st false
    else finish st false

  let settle st () = finish st false (* unreachable under [`Per_move] *)
  let stuck st () = finish st false
end

module Route_walk = Walk.Make (Route_substrate)

let route_from (t : Net.t) ~src ~dst =
  let st =
    {
      Route_substrate.net = t;
      dst;
      cur = src.Net.home_as;
      pos = src.Net.id;
      pos_host = src;
      as_hops = 0;
      pointer_hops = 0;
      cache_hops = 0;
      peer_crossings = 0;
      backtracks = 0;
      max_breadth = 0;
      rev_path = [ src.Net.home_as ];
      ceiling = Level.Root;
      tried_peers = Hashtbl.create 4;
      tracer = Trace.builder ();
    }
  in
  Charge.inject t.Net.metrics Msg.data src.Net.home_as;
  Route_walk.run st ~start:()

let route_between_ases t ~src_as ~dst =
  match Ring.min_binding !(t.Net.resident_rings.(src_as)) with
  | None -> None
  | Some (_, h) -> Some (route_from t ~src:h ~dst)

let stretch_vs_bgp t ~src ~dst =
  match Net.locate t dst with
  | None -> None
  | Some dst_home when dst_home = src.Net.home_as -> None
  | Some dst_home ->
    let policy = Level.policy t.Net.ctx in
    (match Policy.bgp_distance policy ~src:src.Net.home_as ~dst:dst_home with
     | None | Some 0 -> None
     | Some bgp ->
       let r = route_from t ~src ~dst in
       if not r.delivered then None
       else Some (float_of_int (max r.as_hops 1) /. float_of_int bgp))

let isolation_respected t r ~src ~dst =
  if r.peer_crossings > 0 || r.cache_hops > 0 then true
  else begin
    match Hashtbl.find_opt t.Net.hosts dst with
    | None -> true
    | Some dst_h ->
      let g = Level.graph t.Net.ctx in
      let ups_src = Asgraph.up_hierarchy g src.Net.home_as in
      (* The guarantee is relative to the hierarchy the destination actually
         joined: an ephemeral or single-homed destination is only reachable
         through the levels it registered at (Â§2.3). *)
      let dst_joined = Hashtbl.create 16 in
      List.iter
        (fun level ->
          match level with
          | Level.Real a -> Hashtbl.replace dst_joined a ()
          | Level.Peer_group _ | Level.Root -> ())
        dst_h.Net.joined;
      let common = List.filter (Hashtbl.mem dst_joined) ups_src in
      if common = [] then true
      else
        List.for_all
          (fun a -> List.exists (fun anc -> Asgraph.in_cone g ~root:anc a) common)
          r.as_path
  end

(* Data-plane equivalence.  The intradomain engine ([Network.Engine], the
   walk [Network.lookup] runs as a batch of one) must give every lookup of a
   batch the verdict, hop count, charges and hop log it gets run alone,
   across stale-pointer NACK restarts, step-guard exhaustion, and batch
   shapes of powers of two and ragged remainders.  [Network.lookup]'s own
   output (verdicts, visited routers, traces, charges, final cache recency)
   is pinned to digests recorded from the per-lookup walk the engine
   replaced.  The interdomain walk is pinned to recorded digests across
   dead cache entries in every peering mode, plus a cached, virtual-AS
   peering scenario. *)

module Id = Rofl_idspace.Id
module Prng = Rofl_util.Prng
module Gen = Rofl_topology.Gen
module Sha256 = Rofl_crypto.Sha256
module Internet = Rofl_asgraph.Internet
module Network = Rofl_intra.Network
module Failure = Rofl_intra.Failure
module Vnode = Rofl_core.Vnode
module Msg = Rofl_core.Msg
module Metrics = Rofl_netsim.Metrics
module Net = Rofl_inter.Net
module Route = Rofl_inter.Route
module Proto = Rofl_proto.Proto
module Engine = Network.Engine
module Pointer = Rofl_core.Pointer
module Pointer_cache = Rofl_core.Pointer_cache
module Trace = Rofl_routing.Trace

let spread_id k =
  Id.of_bytes_exn (String.sub (Sha256.digest (Printf.sprintf "t:%d" k)) 0 16)

let status_str = function
  | Network.Delivered vn -> "D:" ^ Id.to_short_string vn.Vnode.id
  | Network.Predecessor vn -> "P:" ^ Id.to_short_string vn.Vnode.id
  | Network.Stuck r -> "S:" ^ string_of_int r

(* ---------- intradomain scenario ---------------------------------------- *)

(* The test_routing golden scenario: waxman net, 40 stable + 3 ephemeral
   joins, two router failures, a link-flap, and a poisoned cache entry so
   the stale-pointer NACK/restart path is live.  [mutate] turns the
   failure/poison stage off for the clean-net QCheck property; [cfg]
   overrides the network configuration (cache capacity). *)
let build_intra ?(seed = 7) ?(n = 30) ?(joins = 40) ?(mutate = true) ?cfg () =
  let rng = Prng.create seed in
  let g = Gen.waxman rng ~n ~alpha:0.4 ~beta:0.2 in
  let net = Network.create ?cfg ~rng g in
  let ids = ref [] in
  let joined = ref 0 in
  while !joined < joins do
    match Network.join_fresh_host net ~gateway:(Prng.int rng n) ~cls:Vnode.Stable with
    | Ok (id, _) ->
      incr joined;
      ids := id :: !ids
    | Error _ -> ()
  done;
  let eph = ref 0 in
  while !eph < 3 do
    match Network.join_fresh_host net ~gateway:(Prng.int rng n) ~cls:Vnode.Ephemeral with
    | Ok _ -> incr eph
    | Error _ -> ()
  done;
  let ids = Array.of_list (List.rev !ids) in
  let failed = if mutate then [ 5 mod n; 17 mod n ] else [] in
  if mutate then begin
    ignore (Failure.fail_router net (5 mod n) ~pick_gateway:(fun _ -> Some (12 mod n)));
    ignore (Failure.fail_router net (17 mod n) ~pick_gateway:(fun _ -> Some (3 mod n)));
    ignore (Failure.disconnect_routers net [ 20 mod n; 21 mod n; 22 mod n ]);
    ignore (Failure.reconnect_routers net [ 20 mod n; 21 mod n; 22 mod n ]);
    (* Poison a cache with a pointer to a router the victim does not live
       at: deterministic stale-pointer NACK when looked up from the route's
       start (combination found by sweeping the seed-7 scenario). *)
    let victim = ids.(0) in
    let victim_router =
      match Network.find_vnode net victim with
      | Some v -> v.Vnode.hosted_at
      | None -> -1
    in
    let wrong = if victim_router = 0 then 1 else 0 in
    let probe_from = if wrong = 1 then 2 else 1 in
    (match Network.spf_route net probe_from wrong with
     | Some r -> Network.cache_route_to net victim wrong (Rofl_core.Sourceroute.hops r)
     | None -> ())
  end;
  (net, ids, failed)

(* The lookup that chases the poisoned pointer planted by [build_intra]. *)
let poison_probe net ids =
  let victim_router =
    match Network.find_vnode net ids.(0) with
    | Some v -> v.Vnode.hosted_at
    | None -> -1
  in
  ((if victim_router = 0 then 2 else 1), ids.(0))

(* The lookup set over a built scenario: starts spread over live routers,
   targets mixing joined identifiers (exact hits, incl. the poisoned
   victim) and hash-spread identifiers (predecessor verdicts). *)
let lookup_set ~n ~count ids failed =
  let from = Array.make count 0 and targets = Array.make count Id.zero in
  for k = 0 to count - 1 do
    let f = ((11 * k) + 2) mod n in
    from.(k) <- (if List.mem f failed then (f + 1) mod n else f);
    targets.(k) <-
      (if k mod 3 = 2 then spread_id k else ids.(k * 5 mod Array.length ids))
  done;
  (from, targets)

let metrics_snapshot (m : Metrics.t) =
  (Metrics.categories m, Array.copy (Metrics.router_load m))

let metrics_delta (cats0, load0) (cats1, load1) =
  let delta =
    List.map
      (fun (c, n1) ->
        let n0 = try List.assoc c cats0 with Not_found -> 0 in
        (c, n1 - n0))
      cats1
  in
  let dload = Array.mapi (fun i l -> l - load0.(i)) load1 in
  (List.filter (fun (_, d) -> d <> 0) delta, dload)

let add_charges b (cats, load) =
  List.iter (fun (c, d) -> Printf.bprintf b " %s=%d" c d) cats;
  Buffer.add_string b " |";
  Array.iteri (fun router d -> if d <> 0 then Printf.bprintf b " %d:%d" router d) load

let full_status = function
  | Network.Delivered vn -> "D:" ^ Id.to_hex vn.Vnode.id
  | Network.Predecessor vn -> "P:" ^ Id.to_hex vn.Vnode.id
  | Network.Stuck r -> "S:" ^ string_of_int r

(* Visited routers and trace events of a lookup, one line. *)
let hop_line (r : Network.lookup_result) =
  let b = Buffer.create 256 in
  List.iter (Printf.bprintf b " %d") r.Network.visited;
  Buffer.add_string b " |";
  List.iter
    (fun (e : Trace.event) ->
      Printf.bprintf b " %s@%d:%s:%s" (Trace.kind_to_string e.Trace.kind) e.Trace.router
        e.Trace.level (Id.to_hex e.Trace.dist))
    r.Network.trace;
  Buffer.contents b

type intra_obs = {
  o_status : string;
  o_msgs : int;
  o_lat : float;
  o_restarts : int;
  o_hops : string;
}

let observe dp i =
  {
    o_status = status_str (Engine.status dp i);
    o_msgs = Engine.msgs dp i;
    o_lat = Engine.latency_ms dp i;
    o_restarts = Engine.restarts dp i;
    o_hops = hop_line (Engine.result dp i);
  }

let check_obs label i a b =
  Alcotest.(check string) (Printf.sprintf "%s#%d status" label i) a.o_status b.o_status;
  Alcotest.(check int) (Printf.sprintf "%s#%d msgs" label i) a.o_msgs b.o_msgs;
  Alcotest.(check bool)
    (Printf.sprintf "%s#%d latency %.17g=%.17g" label i a.o_lat b.o_lat)
    true (a.o_lat = b.o_lat);
  Alcotest.(check int) (Printf.sprintf "%s#%d restarts" label i) a.o_restarts b.o_restarts;
  Alcotest.(check string) (Printf.sprintf "%s#%d hops" label i) a.o_hops b.o_hops

(* Chunked batches vs a loop of batches of one over the full set.  Lookups
   never see each other's side effects within a run, and the only state a
   run writes (cache recency) never changes a verdict, so every chunking
   must reproduce the same per-lookup map. *)
let check_chunkings ?step_limit net from targets =
  let count = Array.length from in
  let one = Engine.create ?step_limit net in
  let reference =
    Array.init count (fun k ->
        Engine.run one ~from:[| from.(k) |] ~targets:[| targets.(k) |];
        observe one 0)
  in
  let chunk_shapes =
    [ ("batch-8", fun _ -> 8);
      ("batch-full", fun _ -> count);
      ("batch-ragged", fun pos -> [| 3; 7; 1; 13; 5 |].(pos mod 5)) ]
  in
  List.iter
    (fun (label, size_at) ->
      let dp = Engine.create ?step_limit net in
      let pos = ref 0 and chunk = ref 0 in
      while !pos < count do
        let len = min (size_at !chunk) (count - !pos) in
        Engine.run dp
          ~from:(Array.sub from !pos len)
          ~targets:(Array.sub targets !pos len);
        Alcotest.(check int) (label ^ " batch_size") len (Engine.batch_size dp);
        Alcotest.(check bool) (label ^ " passes counted") true (Engine.passes dp >= 1);
        for j = 0 to len - 1 do
          check_obs label (!pos + j) reference.(!pos + j) (observe dp j)
        done;
        pos := !pos + len;
        incr chunk
      done)
    chunk_shapes;
  reference

let test_intra_batch_eq_one_at_a_time () =
  let net, ids, failed = build_intra () in
  let from, targets = lookup_set ~n:30 ~count:40 ids failed in
  let probe_from, victim = poison_probe net ids in
  let from = Array.append [| probe_from |] from in
  let targets = Array.append [| victim |] targets in
  let reference = check_chunkings net from targets in
  (* The scenario must actually exercise the interesting paths. *)
  let statuses = Array.map (fun o -> o.o_status.[0]) reference in
  Alcotest.(check bool) "some delivered" true (Array.exists (( = ) 'D') statuses);
  Alcotest.(check bool) "some predecessor verdicts" true
    (Array.exists (( = ) 'P') statuses);
  Alcotest.(check bool) "stale restart exercised" true
    (Array.exists (fun o -> o.o_restarts > 0) reference)

let test_intra_batch_eq_one_at_a_time_exhaustion () =
  (* A 2-step guard forces the max-steps Stuck path on nearly every lookup;
     chunked batches must still match one-at-a-time runs verdict for
     verdict. *)
  let net, ids, failed = build_intra () in
  let from, targets = lookup_set ~n:30 ~count:24 ids failed in
  let reference = check_chunkings ~step_limit:2 net from targets in
  Alcotest.(check bool) "guard exhaustion exercised" true
    (Array.exists (fun o -> o.o_status.[0] = 'S') reference)

(* Every router's cache, most recently used first. *)
let cache_state b (net : Network.t) =
  Array.iter
    (fun (r : Network.router) ->
      Printf.bprintf b "cache %d:" r.Network.idx;
      Pointer_cache.iter r.Network.cache (fun (p : Pointer.t) ->
          Printf.bprintf b " %s@%d" (Id.to_hex p.Pointer.dst) p.Pointer.dst_router);
      Buffer.add_char b '\n')
    net.Network.routers

(* [Network.lookup] over the stale scenario, one line per lookup (verdict,
   msgs, latency bits, visited routers, trace, per-category and per-router
   charge deltas), then every cache in recency order.  Lookups alternate
   cache use and every sixth excludes its own target (the re-join case);
   the first chases the poisoned pointer, so a NACK restart is in the
   digest.  The builds run hundreds of joins through the same walk, so the
   digest also pins the joins' state and, at capacity 4, the evictions
   the lookups' recency touches decide. *)
let lookup_digest ?cfg () =
  let net, ids, failed = build_intra ?cfg () in
  let from, targets = lookup_set ~n:30 ~count:60 ids failed in
  let probe_from, victim = poison_probe net ids in
  let from = Array.append [| probe_from |] from in
  let targets = Array.append [| victim |] targets in
  let b = Buffer.create 16384 in
  let backtracks = ref 0 and excluded = ref 0 in
  Array.iteri
    (fun k f ->
      let target = targets.(k) in
      let use_cache = k = 0 || k mod 4 <> 1 in
      let exclude = if k mod 6 = 1 then Some target else None in
      if exclude <> None then incr excluded;
      let before = metrics_snapshot net.Network.metrics in
      let r = Network.lookup ?exclude net ~from:f ~target ~category:Msg.data ~use_cache in
      let d = metrics_delta before (metrics_snapshot net.Network.metrics) in
      backtracks := !backtracks + Trace.count r.Network.trace Trace.Backtrack;
      Printf.bprintf b "%d %s %d %Lx |%s |" k (full_status r.Network.status) r.Network.msgs
        (Int64.bits_of_float r.Network.latency_ms) (hop_line r);
      add_charges b d;
      Buffer.add_char b '\n')
    from;
  cache_state b net;
  (!backtracks, !excluded, Digest.to_hex (Digest.string (Buffer.contents b)))

(* Recorded from the per-lookup [Walk.Make] driver before it was deleted. *)
let test_lookup_golden ?cfg golden () =
  let backtracks, excluded, digest = lookup_digest ?cfg () in
  Alcotest.(check bool) "NACK backtrack exercised" true (backtracks > 0);
  Alcotest.(check int) "excluding lookups" 10 excluded;
  Alcotest.(check string) "lookup digest" golden digest

(* A lookup's cache probe refreshes recency the way
   [Pointer_cache.best_match] does, so it decides which entry a later
   insert evicts.  At capacity 2, a lookup from a router towards its
   least recently used entry makes that entry the most recent: the next
   insert must evict the other one. *)
let test_probe_recency_decides_eviction () =
  let cfg = { Network.default_config with Network.cache_capacity = 2 } in
  let net, _, _ = build_intra ~cfg ~mutate:false () in
  let rec pick r =
    if r >= Array.length net.Network.routers then Alcotest.fail "no full cache"
    else begin
      let cache = net.Network.routers.(r).Network.cache in
      let order = ref [] in
      Pointer_cache.iter cache (fun p -> order := p :: !order);
      match !order with
      | [ lru; mru ] -> (r, cache, lru, mru)
      | _ -> pick (r + 1)
    end
  in
  let r, cache, (lru : Pointer.t), (mru : Pointer.t) = pick 0 in
  ignore
    (Network.lookup net ~from:r ~target:lru.Pointer.dst ~category:Msg.data ~use_cache:true);
  Pointer_cache.insert cache
    (Pointer.make Pointer.Cached ~dst:(spread_id 4242) ~dst_router:mru.Pointer.dst_router
       ~route:mru.Pointer.route);
  Alcotest.(check int) "router probed" 0 r;
  Alcotest.(check string) "probed entry" "f6f70a27ab7146ef550ea407ee0a164c"
    (Id.to_hex lru.Pointer.dst);
  Alcotest.(check bool) "probed entry kept" true (Pointer_cache.mem cache lru.Pointer.dst);
  Alcotest.(check bool) "untouched entry evicted" false
    (Pointer_cache.mem cache mru.Pointer.dst)

(* A cached route is a suffix of a lookup's [visited] list, and a greedy
   walk may pass a router more than once, so a committed route can be
   longer than the router count.  On the line 0-1-2-3, router 0 caches a
   7-link route to a host at router 3 that doubles back twice; the lookup
   must follow it hop by hop, alone and beside a second lookup in the same
   batch. *)
let test_non_simple_cached_route () =
  let g = Rofl_topology.Graph.create 4 in
  for r = 0 to 2 do
    Rofl_topology.Graph.add_link g r (r + 1) ~latency_ms:1.0
  done;
  let net = Network.create ~rng:(Prng.create 5) g in
  let target =
    match Network.join_fresh_host net ~gateway:3 ~cls:Vnode.Stable with
    | Ok (id, _) -> id
    | Error e -> Alcotest.fail e
  in
  let route = Rofl_core.Sourceroute.of_hops [ 0; 1; 0; 1; 0; 1; 2; 3 ] in
  Pointer_cache.insert net.Network.routers.(0).Network.cache
    (Pointer.make Pointer.Cached ~dst:target ~dst_router:3 ~route);
  let r = Network.lookup net ~from:0 ~target ~category:Msg.data ~use_cache:true in
  Alcotest.(check string) "delivered" (status_str r.Network.status)
    ("D:" ^ Id.to_short_string target);
  Alcotest.(check int) "msgs" 7 r.Network.msgs;
  Alcotest.(check (list int)) "visited" [ 0; 1; 0; 1; 0; 1; 2; 3 ] r.Network.visited;
  let one = Engine.create net in
  Engine.run one ~from:[| 0 |] ~targets:[| target |];
  let alone = observe one 0 in
  let dp = Engine.create net in
  Engine.run dp ~from:[| 0; 0 |] ~targets:[| target; target |];
  check_obs "non-simple" 0 alone (observe dp 0);
  check_obs "non-simple" 1 alone (observe dp 1)

(* ---------- QCheck: random topologies and lookup sets ------------------- *)

let qcheck_intra_equivalence =
  QCheck.Test.make ~count:6 ~name:"dataplane intra batch = sequential (random nets)"
    QCheck.(pair (int_range 1 1000) bool)
    (fun (seed, mutate) ->
      let n = 16 + (seed mod 9) in
      let net, ids, failed =
        build_intra ~seed ~n ~joins:(12 + (seed mod 7)) ~mutate ()
      in
      let count = 10 + (seed mod 17) in
      let from, targets = lookup_set ~n ~count ids failed in
      ignore (check_chunkings net from targets);
      (* Alcotest checks inside raise on mismatch; reaching here is a pass. *)
      true)

(* ---------- interdomain -------------------------------------------------- *)

(* [peering] turns the second half of the population into [Peering]
   joiners, so under [Virtual_as] the virtual-AS levels have members. *)
let build_inter ?(seed = 11) ?(peering = false) cfg =
  let rng = Prng.create seed in
  let inet = Internet.generate rng Internet.small_params in
  let net = Net.create ~cfg ~rng inet.Internet.graph in
  let stubs = Array.of_list (Internet.stubs inet) in
  let hosts =
    Array.init 60 (fun i ->
        let s = stubs.(Prng.int rng (Array.length stubs)) in
        let strategy =
          match i mod 4 with
          | 0 -> Net.Single_homed
          | 1 -> Net.Multihomed
          | 2 -> if peering then Net.Peering else Net.Single_homed
          | _ -> if peering then Net.Peering else Net.Ephemeral
        in
        (Net.join net ~as_idx:s ~strategy).Net.host)
  in
  (* Departures leave dead cache entries behind for the walk to prune. *)
  let departed = [ hosts.(5).Net.id; hosts.(23).Net.id ] in
  List.iter (fun id -> ignore (Net.remove_host net id)) departed;
  (net, hosts, departed)

let inter_pairs hosts departed =
  let live = Array.of_list (List.filter (fun h -> h.Net.alive_h) (Array.to_list hosts)) in
  let n = Array.length live in
  let count = 30 in
  let srcs = Array.init count (fun k -> live.(7 * k mod n)) in
  let dsts =
    Array.init count (fun k ->
        match k mod 5 with
        | 4 -> List.nth departed (k mod 2) (* dead target: dead-cache purges *)
        | 3 -> spread_id (1000 + k)
        | _ -> live.(((13 * k) + 5) mod n).Net.id)
  in
  (srcs, dsts)

(* A ring move over a virtual-AS (peer-group) level. *)
let is_vas_move (e : Trace.event) =
  String.length e.Trace.level >= 3 && String.sub e.Trace.level 0 3 = "vAS"

(* [route_from] is the one interdomain walk.  Its batched twin, which had
   to match it lookup for lookup, was removed; what the two agreed on is
   pinned per peering mode as a digest: one line per lookup with the
   route's counters, its per-category charge delta and its per-router load
   delta.  Departed targets put the dead-cache prune path under the pin. *)
let route_digest ?peering cfg =
  let net, hosts, departed = build_inter ?peering cfg in
  let srcs, dsts = inter_pairs hosts departed in
  let b = Buffer.create 4096 in
  let delivered = ref 0 and cache_hops = ref 0 and vas_moves = ref 0 in
  Array.iteri
    (fun k src ->
      let before = metrics_snapshot net.Net.metrics in
      let r = Route.route_from net ~src ~dst:dsts.(k) in
      let d = metrics_delta before (metrics_snapshot net.Net.metrics) in
      if r.Route.delivered then incr delivered;
      cache_hops := !cache_hops + r.Route.cache_hops;
      vas_moves := !vas_moves + List.length (List.filter is_vas_move r.Route.trace);
      Printf.bprintf b "%d %b %d %d %d %d %d |" k r.Route.delivered r.Route.as_hops
        r.Route.pointer_hops r.Route.cache_hops r.Route.peer_crossings
        r.Route.backtracks;
      add_charges b d;
      Buffer.add_char b '\n')
    srcs;
  (!delivered, !cache_hops, !vas_moves, Digest.to_hex (Digest.string (Buffer.contents b)))

let test_route_golden cfg golden () =
  let delivered, _, _, digest = route_digest cfg in
  Alcotest.(check int) "delivered (dead and unknown targets are not)" 18 delivered;
  Alcotest.(check string) "route digest" golden digest

(* The default scenario never takes a cache shortcut (caches are off by
   default) and has no peering joiners, so no virtual-AS level has a
   member.  With 64-entry caches and peering joiners both paths run. *)
let test_route_golden_cached_vas () =
  let delivered, cache_hops, vas_moves, digest =
    route_digest ~peering:true { Net.default_config with Net.cache_capacity = 64 }
  in
  Alcotest.(check int) "delivered" 18 delivered;
  Alcotest.(check bool) "cache shortcuts exercised" true (cache_hops > 0);
  Alcotest.(check bool) "virtual-AS moves exercised" true (vas_moves > 0);
  Alcotest.(check string) "route digest" "4461bb75afac7653a0e79ad10e2c54ce" digest

(* ---------- protocol engine batch entry point ---------------------------- *)

let test_proto_batch_eq_lookup_owner () =
  let topo = Gen.waxman (Prng.create 41) ~n:30 ~alpha:0.4 ~beta:0.2 in
  let t = Proto.create ~rng:(Prng.create 41) topo in
  let rng = Prng.create 42 in
  for _ = 1 to 25 do
    Proto.join t ~gateway:(Prng.int rng 30) (Id.random rng)
  done;
  ignore (Proto.run_until_quiescent t ~max_ms:120_000.0);
  (* A crash leaves tables mid-repair; the walk is pure-read either way. *)
  let members = Array.of_list (Proto.members t) in
  ignore (Proto.crash t members.(Array.length members / 2));
  Proto.run_for t 40.0;
  let count = 40 in
  let from = Array.init count (fun k -> (7 * k) mod 30) in
  let targets =
    Array.init count (fun k ->
        if k mod 3 = 0 then spread_id (2000 + k)
        else members.(k * 3 mod Array.length members))
  in
  let batched = Proto.lookup_owner_batch t ~from ~targets in
  Array.iteri
    (fun k expect ->
      let got = Proto.lookup_owner t ~from:from.(k) targets.(k) in
      Alcotest.(check bool)
        (Printf.sprintf "proto#%d owner agrees" k)
        true
        (match (expect, got) with
        | None, None -> true
        | Some a, Some b -> Id.equal a b
        | _ -> false))
    batched;
  Alcotest.(check int) "empty batch" 0
    (Array.length (Proto.lookup_owner_batch t ~from:[||] ~targets:[||]))

let test_empty_batches () =
  let net, _, _ = build_intra ~joins:8 ~mutate:false () in
  let dp = Engine.create net in
  Engine.run dp ~from:[||] ~targets:[||];
  Alcotest.(check int) "intra empty batch size" 0 (Engine.batch_size dp);
  Alcotest.(check int) "intra empty passes" 0 (Engine.passes dp)

let () =
  Alcotest.run "dataplane"
    [
      ( "intra",
        [
          Alcotest.test_case "batch = sequential (chunked, stale state)" `Slow
            test_intra_batch_eq_one_at_a_time;
          Alcotest.test_case "batch = sequential under guard exhaustion" `Slow
            test_intra_batch_eq_one_at_a_time_exhaustion;
          Alcotest.test_case "Network.lookup golden digest" `Slow
            (test_lookup_golden "1ff60a7db088be889eb980eb54f4c089");
          Alcotest.test_case "Network.lookup golden digest, 4-entry caches" `Slow
            (test_lookup_golden
               ~cfg:{ Network.default_config with Network.cache_capacity = 4 }
               "c42c1f2c26594b2900b28f39e715ac94");
          Alcotest.test_case "probe recency decides eviction" `Quick
            test_probe_recency_decides_eviction;
          Alcotest.test_case "non-simple cached route" `Quick test_non_simple_cached_route;
          QCheck_alcotest.to_alcotest qcheck_intra_equivalence;
          Alcotest.test_case "empty batch" `Quick test_empty_batches;
        ] );
      ( "inter",
        [
          Alcotest.test_case "no-peering: route_from golden digest" `Slow
            (test_route_golden
               { Net.default_config with Net.peering_mode = Net.No_peering }
               "036915b1e9c9fc0147c26dd3fcc59b35");
          Alcotest.test_case "virtual-as: route_from golden digest" `Slow
            (test_route_golden
               { Net.default_config with Net.peering_mode = Net.Virtual_as }
               "036915b1e9c9fc0147c26dd3fcc59b35");
          Alcotest.test_case "bloom: route_from golden digest" `Slow
            (test_route_golden
               { Net.default_config with Net.peering_mode = Net.Bloom_filters }
               "047267ac14eb0204393037632068f4b1");
          Alcotest.test_case "cached virtual-as: route_from golden digest" `Slow
            test_route_golden_cached_vas;
        ] );
      ( "proto",
        [
          Alcotest.test_case "lookup_owner_batch = mapped lookup_owner" `Slow
            test_proto_batch_eq_lookup_owner;
        ] );
    ]

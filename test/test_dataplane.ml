(* Batched data-plane equivalence: the struct-of-arrays engines must produce
   byte-identical per-lookup verdicts, hop counts and charges to the
   sequential reference walks they batch — across stale-pointer NACK
   restarts, step-guard exhaustion, and batch shapes of 1 / powers of two /
   ragged remainders.  The interdomain walk, which has no batched twin, is
   pinned to recorded digests across dead cache entries in every peering
   mode. *)

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
module Dintra = Rofl_dataplane.Intra

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
   failure/poison stage off for the clean-net QCheck property. *)
let build_intra ?(seed = 7) ?(n = 30) ?(joins = 40) ?(mutate = true) () =
  let rng = Prng.create seed in
  let g = Gen.waxman rng ~n ~alpha:0.4 ~beta:0.2 in
  let net = Network.create ~rng g in
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

type intra_obs = {
  o_status : string;
  o_msgs : int;
  o_lat : float;
  o_restarts : int;
}

let observe dp i =
  {
    o_status = status_str (Dintra.status dp i);
    o_msgs = Dintra.msgs dp i;
    o_lat = Dintra.latency_ms dp i;
    o_restarts = Dintra.restarts dp i;
  }

let check_obs label i a b =
  Alcotest.(check string) (Printf.sprintf "%s#%d status" label i) a.o_status b.o_status;
  Alcotest.(check int) (Printf.sprintf "%s#%d msgs" label i) a.o_msgs b.o_msgs;
  Alcotest.(check bool)
    (Printf.sprintf "%s#%d latency %.17g=%.17g" label i a.o_lat b.o_lat)
    true (a.o_lat = b.o_lat);
  Alcotest.(check int) (Printf.sprintf "%s#%d restarts" label i) a.o_restarts b.o_restarts

(* Batched chunked execution vs one sequential engine over the full set.
   Both engines only read router state, so every chunking must reproduce
   the same per-lookup map. *)
let check_chunkings ?step_limit net from targets =
  let count = Array.length from in
  let seq = Dintra.create ?step_limit net in
  Dintra.run_sequential seq ~from ~targets;
  let reference = Array.init count (observe seq) in
  let chunk_shapes =
    [ ("batch-1", fun _ -> 1); ("batch-8", fun _ -> 8);
      ("batch-full", fun _ -> count);
      ("batch-ragged", fun pos -> [| 3; 7; 1; 13; 5 |].(pos mod 5)) ]
  in
  List.iter
    (fun (label, size_at) ->
      let dp = Dintra.create ?step_limit net in
      let pos = ref 0 and chunk = ref 0 in
      while !pos < count do
        let len = min (size_at !chunk) (count - !pos) in
        Dintra.run dp
          ~from:(Array.sub from !pos len)
          ~targets:(Array.sub targets !pos len);
        Alcotest.(check int) (label ^ " batch_size") len (Dintra.batch_size dp);
        Alcotest.(check bool) (label ^ " passes counted") true (Dintra.passes dp >= 1);
        for j = 0 to len - 1 do
          check_obs label (!pos + j) reference.(!pos + j) (observe dp j)
        done;
        pos := !pos + len;
        incr chunk
      done)
    chunk_shapes;
  reference

let test_intra_batch_eq_sequential () =
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

let test_intra_batch_eq_sequential_exhaustion () =
  (* A 2-step guard forces the max-steps Stuck path on nearly every lookup;
     chunked batches must still match the sequential engine verdict for
     verdict. *)
  let net, ids, failed = build_intra () in
  let from, targets = lookup_set ~n:30 ~count:24 ids failed in
  let reference = check_chunkings ~step_limit:2 net from targets in
  Alcotest.(check bool) "guard exhaustion exercised" true
    (Array.exists (fun o -> o.o_status.[0] = 'S') reference)

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

(* The engine vs [Network.lookup], one lookup at a time from the identical
   starting state: verdict, message count, latency AND the full metrics
   delta (per-category counts + per-router load) must be byte-identical.
   The engine only reads router state, so it runs first; the sequential
   walk then applies its eager NACK prunes, and [apply_nacks] replays the
   engine's deferred prunes (idempotent — same prunes) to keep the two
   views aligned for the next lookup. *)
let test_intra_engine_eq_network_lookup () =
  let net, ids, failed = build_intra () in
  let from, targets = lookup_set ~n:30 ~count:40 ids failed in
  (* Prepend the poisoned-victim lookup so the NACK fires under comparison. *)
  let probe_from, victim = poison_probe net ids in
  let from = Array.append [| probe_from |] from in
  let targets = Array.append [| victim |] targets in
  let dp_cache = Dintra.create ~use_cache:true net in
  let dp_nocache = Dintra.create ~use_cache:false net in
  let nacks_seen = ref 0 in
  Array.iteri
    (fun k f ->
      let target = targets.(k) in
      let use_cache = k = 0 || k mod 4 <> 1 in
      let dp = if use_cache then dp_cache else dp_nocache in
      let before = metrics_snapshot net.Network.metrics in
      Dintra.run dp ~from:[| f |] ~targets:[| target |];
      let dpd = metrics_delta before (metrics_snapshot net.Network.metrics) in
      let dpo = observe dp 0 in
      nacks_seen := !nacks_seen + Dintra.nack_count dp;
      let before = metrics_snapshot net.Network.metrics in
      let r = Network.lookup net ~from:f ~target ~category:Msg.data ~use_cache in
      let seqd = metrics_delta before (metrics_snapshot net.Network.metrics) in
      Dintra.apply_nacks dp;
      check_obs "vs-lookup" k dpo
        { o_status = status_str r.Network.status; o_msgs = r.Network.msgs;
          o_lat = r.Network.latency_ms; o_restarts = dpo.o_restarts };
      let (dc, dl) = dpd and (sc, sl) = seqd in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "vs-lookup#%d category delta" k) sc dc;
      Alcotest.(check (array int)) (Printf.sprintf "vs-lookup#%d load delta" k) sl dl)
    from;
  Alcotest.(check bool) "stale NACK path exercised" true (!nacks_seen > 0)

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

let build_inter ?(seed = 11) cfg =
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
          | 2 -> Net.Single_homed
          | _ -> Net.Ephemeral
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

(* [route_from] is the one interdomain walk.  Its batched twin, which had
   to match it lookup for lookup, was removed; what the two agreed on is
   pinned per peering mode as a digest recorded before the removal: one
   line per lookup with the route's counters, its per-category charge delta
   and its per-router load delta.  Departed targets put the dead-cache
   prune path under the pin. *)
let route_digest cfg =
  let net, hosts, departed = build_inter cfg in
  let srcs, dsts = inter_pairs hosts departed in
  let b = Buffer.create 4096 in
  let delivered = ref 0 in
  Array.iteri
    (fun k src ->
      let before = metrics_snapshot net.Net.metrics in
      let r = Route.route_from net ~src ~dst:dsts.(k) in
      let cats, load = metrics_delta before (metrics_snapshot net.Net.metrics) in
      if r.Route.delivered then incr delivered;
      Printf.bprintf b "%d %b %d %d %d %d %d %d |" k r.Route.delivered r.Route.as_hops
        r.Route.pointer_hops r.Route.cache_hops r.Route.peer_crossings
        r.Route.backtracks r.Route.max_level_breadth;
      List.iter (fun (c, d) -> Printf.bprintf b " %s=%d" c d) cats;
      Buffer.add_string b " |";
      Array.iteri (fun router d -> if d <> 0 then Printf.bprintf b " %d:%d" router d) load;
      Buffer.add_char b '\n')
    srcs;
  (!delivered, Digest.to_hex (Digest.string (Buffer.contents b)))

let test_route_golden cfg golden () =
  let delivered, digest = route_digest cfg in
  Alcotest.(check int) "delivered (dead and unknown targets are not)" 18 delivered;
  Alcotest.(check string) "route digest" golden digest

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
  let dp = Dintra.create net in
  Dintra.run dp ~from:[||] ~targets:[||];
  Alcotest.(check int) "intra empty batch size" 0 (Dintra.batch_size dp);
  Alcotest.(check int) "intra empty total hops" 0 (Dintra.total_hops dp);
  Alcotest.(check int) "intra empty delivered" 0 (Dintra.delivered_count dp)

let () =
  Alcotest.run "dataplane"
    [
      ( "intra",
        [
          Alcotest.test_case "batch = sequential (chunked, stale state)" `Slow
            test_intra_batch_eq_sequential;
          Alcotest.test_case "batch = sequential under guard exhaustion" `Slow
            test_intra_batch_eq_sequential_exhaustion;
          Alcotest.test_case "engine = Network.lookup (verdict+charges)" `Slow
            test_intra_engine_eq_network_lookup;
          QCheck_alcotest.to_alcotest qcheck_intra_equivalence;
          Alcotest.test_case "empty batch" `Quick test_empty_batches;
        ] );
      ( "inter",
        [
          Alcotest.test_case "no-peering: route_from golden digest" `Slow
            (test_route_golden Net.default_config "920b7eac39c8b621a2cf55ffa42be265");
          Alcotest.test_case "virtual-as: route_from golden digest" `Slow
            (test_route_golden
               { Net.default_config with Net.peering_mode = Net.Virtual_as }
               "920b7eac39c8b621a2cf55ffa42be265");
          Alcotest.test_case "bloom: route_from golden digest" `Slow
            (test_route_golden
               { Net.default_config with Net.peering_mode = Net.Bloom_filters }
               "c3394852df507ff60fb8f3dab11f1153");
        ] );
      ( "proto",
        [
          Alcotest.test_case "lookup_owner_batch = mapped lookup_owner" `Slow
            test_proto_batch_eq_lookup_owner;
        ] );
    ]

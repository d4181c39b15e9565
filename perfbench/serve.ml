(* The [serve] workload: the read-mostly data plane over a quiescent ring.

   Set-up bootstraps a [Proto] ring on AS1221 with pointer caches, warms
   those caches with one round of message-driven lookups, registers a
   Zipf-popular service set in a [Directory] and places every record.  The
   timed phase is a closed loop with one client on one domain; each tick
   (simulated time advanced by the benchmark, no simulated events) runs
   [republish_due] and [sweep] (record writes), one [resolve_batch] of
   Zipf-drawn names with a share of never-published ones (reads, cache hits
   and misses), and single owner walks through [Rofl_dataplane.Alpha] at
   α = 2, each checked against the ring owner of the membership. *)

module Id = Rofl_idspace.Id
module Prng = Rofl_util.Prng
module Isp = Rofl_topology.Isp
module Graph = Rofl_topology.Graph
module Proto = Rofl_proto.Proto
module Alpha = Rofl_dataplane.Alpha
module Directory = Rofl_services.Directory
module L = Ledger
module R = Report

type size = {
  bootstrap : int;   (** ring population *)
  warm : int;        (** message-driven lookups that warm the pointer caches *)
  services : int;    (** published names, two providers each *)
  ticks : int;       (** 100 ms ticks in the timed phase *)
  batch : int;       (** resolutions per tick *)
  walks : int;       (** single α = 2 owner walks per tick *)
}

let full = { bootstrap = 2000; warm = 2000; services = 400; ticks = 150; batch = 64; walks = 16 }
let tiny = { bootstrap = 200; warm = 200; services = 40; ticks = 20; batch = 64; walks = 64 }

let isp_seed = 1221
let tick_ms = 100.0
let alpha = 2

(* Ring owner under the data plane's settle rule: the greatest member <= id,
   wrapping to the largest member.  [members] is sorted. *)
let ring_owner members id =
  let n = Array.length members in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Id.compare members.(mid) id <= 0 then lo := mid + 1 else hi := mid
  done;
  members.(if !lo = 0 then n - 1 else !lo - 1)

let run_rep ~seed ~traced size =
  L.reset ();
  Calib.start Calib.default_exponents;
  let s0 = Calib.clock () in
  let t0 = L.now () in
  let isp = Isp.generate (Prng.create isp_seed) Isp.as1221 in
  L.close L.Topology t0;
  let topo_s = L.secs (L.now () - t0) in
  let graph = isp.Isp.graph in
  let gateways = Array.of_list (Isp.edge_routers isp) in
  let gw g = gateways.(Prng.int g (Array.length gateways)) in
  let cfg = { Proto.default_config with Proto.pcache_capacity = 64 } in
  let t0 = L.now () in
  let proto =
    Proto.create ~rng:(R.stream seed "proto") ~cfg ~bootstrap_hosts:size.bootstrap graph
  in
  L.close L.Proto t0;
  let create_s = L.secs (L.now () - t0) in
  Calib.tick ();
  let t0 = L.now () in
  let members = Array.of_list (Proto.members proto) in
  let wg = R.stream seed "warm" in
  for _ = 1 to size.warm do
    Proto.lookup_async proto ~from:(gw wg) (Prng.sample wg members) ignore
  done;
  let budget = ref 50 in
  while Proto.lookups_outstanding proto > 0 && !budget > 0 do
    Proto.run_for proto 200.0;
    Calib.tick ();
    decr budget
  done;
  L.close L.Proto t0;
  let t0 = L.now () in
  let dir =
    Directory.create ~proto ~routers:(Graph.n graph) ~hint:(2 * size.services)
      Directory.default_config
  in
  let svc = Array.init size.services (fun r -> Id.random (R.stream seed ("svc", r))) in
  for r = 0 to size.services - 1 do
    for j = 0 to 1 do
      let g = R.stream seed ("provider", r, j) in
      ignore (Directory.register dir ~service:svc.(r) ~provider:(Id.random g) ~origin:(gw g))
    done
  done;
  ignore (Directory.republish_all dir ~now:0.0);
  L.close L.Services t0;
  Calib.tick ();
  let alpha_file = Alpha.create ~hint:1 ~alpha proto in
  (* demand: Zipf ranks, 5% never-published names from a small pool *)
  let dg = R.stream seed "demand" in
  let unknown = Array.init (max 1 (size.services / 8)) (fun _ -> Id.random dg) in
  let n_res = size.ticks * size.batch and n_walk = size.ticks * size.walks in
  let res_from = Array.init n_res (fun _ -> gw dg) in
  let res_svc =
    Array.init n_res (fun _ ->
        if Prng.float dg 1.0 < 0.05 then Prng.sample dg unknown
        else svc.(Prng.zipf dg ~n:size.services ~s:0.9 - 1))
  in
  let walk_from = Array.init n_walk (fun _ -> gw dg) in
  let walk_target =
    Array.init n_walk (fun i -> if i land 1 = 0 then Prng.sample dg members else Id.random dg)
  in
  let from = Array.make size.batch 0 and services = Array.make size.batch Id.zero in
  let setup_s = Calib.secs (Calib.clock () -. s0) in
  (* timed phase *)
  let walk_us = Array.make n_walk 0.0 in
  let pub_us = ref 0.0 and sweep_us = ref 0.0 and res_us = ref 0.0 and walks_us = ref 0.0 in
  let records = ref 0 and hits = ref 0 in
  let ring_hops = ref 0 and link_hops = ref 0 and wasted = ref 0 and cancels = ref 0 in
  let failed = ref 0 and wrong = ref 0 in
  let h = ref R.digest_seed in
  let gc0 = R.gc_mark () in
  let p0 = L.now () and c0 = Calib.clock () and r0 = Calib.raw_clock () in
  for k = 1 to size.ticks do
    let now = float_of_int k *. tick_ms in
    let t0 = L.now () in
    records := !records + Directory.republish_due dir ~now;
    let t1 = L.now () in
    L.close L.Services t0;
    ignore (Directory.sweep dir ~now);
    let t2 = L.now () in
    L.close L.Services t1;
    pub_us := !pub_us +. Calib.us (t1 - t0);
    sweep_us := !sweep_us +. Calib.us (t2 - t1);
    let base = (k - 1) * size.batch in
    Array.blit res_from base from 0 size.batch;
    Array.blit res_svc base services 0 size.batch;
    let t0 = L.now () in
    Directory.resolve_batch dir ~now ~n:size.batch ~from ~services;
    let t1 = L.now () in
    L.close L.Services t0;
    res_us := !res_us +. Calib.us (t1 - t0);
    Calib.tick ();
    for i = 0 to size.batch - 1 do
      let hit = Directory.res_hit dir i in
      if hit then incr hits;
      if not (Directory.res_ok dir i) then begin
        incr failed;
        incr wrong
      end;
      h := R.mix_bool (R.mix_bool !h hit) (Directory.res_positive dir i);
      h := R.mix_float !h (Directory.res_latency_ms dir i)
    done;
    for j = 0 to size.walks - 1 do
      let w = ((k - 1) * size.walks) + j in
      let target = walk_target.(w) in
      let t0 = L.now () in
      Alpha.clear alpha_file;
      let i = Alpha.stage alpha_file ~from:walk_from.(w) ~target in
      Alpha.run alpha_file;
      let t1 = L.now () in
      L.close L.Dataplane t0;
      walk_us.(w) <- Calib.us (t1 - t0);
      walks_us := !walks_us +. walk_us.(w);
      if not (Alpha.resolved alpha_file i) then incr failed
      else if not (Id.equal (Alpha.owner_id alpha_file i) (ring_owner members target)) then begin
        incr failed;
        incr wrong
      end
      else begin
        ring_hops := !ring_hops + Alpha.ring_hops alpha_file i;
        link_hops := !link_hops + Alpha.link_hops alpha_file i;
        wasted := !wasted + Alpha.wasted_hops alpha_file i;
        cancels := !cancels + Alpha.cancellations alpha_file;
        h := R.mix (R.mix !h (Alpha.owner_router alpha_file i)) (Alpha.ring_hops alpha_file i);
        h := R.mix_float (R.mix !h (Alpha.link_hops alpha_file i)) (Alpha.latency_ms alpha_file i)
      end;
      Calib.tick ()
    done
  done;
  let p1 = L.now () and c1 = Calib.clock () and r1 = Calib.raw_clock () in
  let gc1 = R.gc_mark () in
  let wall_s = Calib.secs (c1 -. c0) in
  let speed = wall_s /. L.secs (r1 - r0) in
  if Alpha.slots_in_flight alpha_file <> 0 then incr wrong;
  h := R.mix !h !records;
  let ops = n_res + n_walk in
  let attempted = ops in
  let minor, _, _ = R.gc_delta gc0 gc1 in
  let fl = float_of_int in
  let e2e =
    [
      ("joins_per_s", fl !records /. (!pub_us *. 1e-6));
      ("lookups_per_s", fl n_walk /. (!walks_us *. 1e-6));
      ("minor_words_per_op", minor /. fl ops);
    ]
  in
  let layer =
    if not traced then []
    else
      [
        ("topology.generate_s", topo_s);
        ("proto.create_s", create_s);
        ("dataplane.alpha.calls", fl n_walk);
        ("dataplane.alpha.us_per_lookup", !walks_us /. fl n_walk);
        ("dataplane.alpha.ring_hops", fl !ring_hops /. fl n_walk);
        ("dataplane.alpha.link_hops", fl !link_hops /. fl n_walk);
        ("dataplane.alpha.cancellations", fl !cancels);
        ("dataplane.alpha.useful_ratio", fl !ring_hops /. fl (max 1 (!ring_hops + !wasted)));
        ("services.resolve.calls", fl size.ticks);
        ("services.resolve.us_per_res", !res_us /. fl n_res);
        ("services.hit_ratio", fl !hits /. fl n_res);
        ("services.republish.us_per_record", !pub_us /. fl (max 1 !records));
        ("services.sweep.us", !sweep_us /. fl size.ticks);
      ]
      @ R.ledger_metrics ~p0 ~p1 ~gc0 ~gc1 ~attempted ~failed:!failed ~not_ok:0
  in
  {
    R.setup_s; wall_s; speed; e2e; layer; attempted; failed = !failed; not_ok = 0; wrong = !wrong;
    digest = !h;
    lookup_us = Array.to_list walk_us;
  }

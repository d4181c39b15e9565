(* The [static] workload: the paper's static pipeline (§6.1–6.3) as a closed
   loop with one client on one domain.

   Set-up generates the AS1239 router map and an AS graph, bootstraps both
   networks and draws every input.  The timed phase then runs four steps:
   host joins (ring writes), PoP-weighted lookups with a quarter of the
   targets absent (reads, priced against link-state shortest paths), one
   PoP partition and heal (fig 7), and interdomain joins plus routes
   (fig 8).  Every verdict is checked against the ring oracle. *)

module Id = Rofl_idspace.Id
module Ring = Rofl_idspace.Ring
module Prng = Rofl_util.Prng
module Isp = Rofl_topology.Isp
module Linkstate = Rofl_linkstate.Linkstate
module Identity = Rofl_crypto.Identity
module Network = Rofl_intra.Network
module Failure = Rofl_intra.Failure
module Invariant = Rofl_intra.Invariant
module Vnode = Rofl_core.Vnode
module Msg = Rofl_core.Msg
module Internet = Rofl_asgraph.Internet
module Net = Rofl_inter.Net
module Route = Rofl_inter.Route
module Hostdist = Rofl_workload.Hostdist
module L = Ledger
module R = Report

type size = {
  hosts : int;        (** intradomain host joins *)
  lookups : int;      (** single lookups; a quarter aim at absent ids *)
  inter_hosts : int;  (** interdomain joins *)
  routes : int;       (** interdomain routes between joined hosts *)
  inet : Internet.params;
}

let full =
  { hosts = 3000; lookups = 6000; inter_hosts = 1500; routes = 12000;
    inet = Internet.default_params }

let tiny =
  { hosts = 200; lookups = 1000; inter_hosts = 60; routes = 200;
    inet = Internet.small_params }

(* Fixed maps: the seed draws the workload, not the topology, so every seed
   measures the same AS1239 and AS graph. *)
let isp_seed = 1239
let inet_seed = 8

type inputs = {
  net : Network.t;
  inet_net : Net.t;
  keys : Identity.keypair array;
  ids : Id.t array;
  join_gw : int array;
  lk_from : int array;
  lk_target : Id.t array;
  lk_present : bool array;
  pop_routers : int list;
  inter_as : int array;
  route_pairs : (int * int) array;
  auth_rng : Prng.t;
}

let setup ~seed size =
  let t0 = L.now () in
  let isp = Isp.generate (Prng.create isp_seed) Isp.as1239 in
  L.close L.Topology t0;
  let topo_s = L.secs (L.now () - t0) in
  Calib.tick ();
  let t0 = L.now () in
  let net = Network.create ~rng:(R.stream seed "net") isp.Isp.graph in
  L.close L.Intra t0;
  let t0 = L.now () in
  let gateway = Hostdist.gateway_sampler (R.stream seed "gateways") isp in
  let join_gw = Array.init size.hosts (fun _ -> gateway ()) in
  let lk_from = Array.init size.lookups (fun _ -> gateway ()) in
  L.close L.Workload t0;
  let t0 = L.now () in
  let key_rng = R.stream seed "keys" in
  let keys = Array.init size.hosts (fun _ -> Identity.generate key_rng) in
  let ids = Array.map Identity.id_of_keypair keys in
  L.close L.Crypto t0;
  let t0 = L.now () in
  let tg = R.stream seed "targets" in
  let lk_present = Array.init size.lookups (fun i -> i mod 4 <> 3) in
  let lk_target =
    Array.init size.lookups (fun i ->
        if lk_present.(i) then ids.(Prng.int tg size.hosts) else Id.random tg)
  in
  L.close L.Idspace t0;
  Calib.tick ();
  (* The fig 7 event: a leaf PoP (at most two core routers, so removing it
     leaves the backbone connected), chosen by the seed. *)
  let leaf =
    Array.to_list isp.Isp.pops |> List.filter (fun (p : Isp.pop) -> List.length p.Isp.core <= 2)
  in
  let pg = R.stream seed "pop" in
  let pop =
    match leaf with
    | [] -> isp.Isp.pops.(Prng.int pg (Array.length isp.Isp.pops))
    | ps -> List.nth ps (Prng.int pg (List.length ps))
  in
  let t0 = L.now () in
  let inet = Internet.generate (Prng.create inet_seed) size.inet in
  L.close L.Asgraph t0;
  Calib.tick ();
  let t0 = L.now () in
  let inet_net = Net.create ~rng:(Prng.create inet_seed) inet.Internet.graph in
  L.close L.Inter t0;
  (* The interdomain population is fixed too (its joins draw their ids
     from the net's own generator); the seed draws the route pairs. *)
  let stubs = Array.of_list (Internet.stubs inet) in
  let ig = Prng.create inet_seed in
  let inter_as =
    Array.init size.inter_hosts (fun _ ->
        stubs.(Prng.zipf ig ~n:(Array.length stubs) ~s:0.9 - 1))
  in
  let rg = R.stream seed "routes" in
  let route_pairs =
    Array.init size.routes (fun _ ->
        (Prng.int rg size.inter_hosts, Prng.int rg size.inter_hosts))
  in
  ( {
      net; inet_net; keys; ids; join_gw; lk_from; lk_target; lk_present;
      pop_routers = Isp.routers_of_pop isp pop.Isp.pop_id;
      inter_as; route_pairs; auth_rng = R.stream seed "auth";
    },
    topo_s )

let run_rep ~seed ~traced size =
  L.reset ();
  Calib.start Calib.default_exponents;
  let s0 = Calib.clock () in
  let inp, topo_s = setup ~seed size in
  let setup_s = Calib.secs (Calib.clock () -. s0) in
  let net = inp.net in
  let attempted = ref 0 and failed = ref 0 and wrong = ref 0 in
  let h = ref R.digest_seed in
  let ops = ref 0 in
  let gc0 = R.gc_mark () in
  let p0 = L.now () and c0 = Calib.clock () and r0 = Calib.raw_clock () in
  (* 1. joins: the self-certifying handshake, then Algorithm 1 *)
  let join_us = Array.make size.hosts 0.0 in
  let join_msgs = ref 0 in
  for i = 0 to size.hosts - 1 do
    incr attempted;
    let kp = inp.keys.(i) in
    let t0 = L.now () in
    let auth =
      Identity.authenticate inp.auth_rng ~claimed_id:inp.ids.(i) (Identity.public kp)
        (fun c -> Identity.respond kp c)
    in
    L.close L.Crypto t0;
    (match auth with
     | Error _ -> incr failed
     | Ok () ->
       let t0 = L.now () in
       let r = Network.join_host net ~gateway:inp.join_gw.(i) ~id:inp.ids.(i) ~cls:Vnode.Stable in
       let t1 = L.now () in
       L.close L.Intra t0;
       join_us.(i) <- Calib.us (t1 - t0);
       incr ops;
       (match r with
        | Error _ -> incr failed
        | Ok o ->
          join_msgs := !join_msgs + o.Network.join_msgs;
          h := R.mix_float (R.mix !h o.Network.join_msgs) o.Network.join_latency_ms));
    Calib.tick ()
  done;
  let c_join = Calib.clock () in
  (* 2. lookups from PoP-weighted gateways, checked against the ring oracle
        and priced against link-state shortest paths *)
  let lk_us = Array.make size.lookups 0.0 in
  let hops = ref 0 and stretch_sum = ref 0.0 and stretch_n = ref 0 in
  let spf_calls = ref 0 and spf_us = ref 0.0 in
  for i = 0 to size.lookups - 1 do
    incr attempted;
    let from = inp.lk_from.(i) and target = inp.lk_target.(i) in
    let t0 = L.now () in
    let r = Network.lookup net ~from ~target ~category:Msg.data ~use_cache:true in
    let t1 = L.now () in
    L.close L.Intra t0;
    incr ops;
    lk_us.(i) <- Calib.us (t1 - t0);
    hops := !hops + List.length r.Network.visited - 1;
    let t0 = L.now () in
    let expect =
      if Ring.mem target net.Network.oracle then Some target
      else Option.map fst (Ring.predecessor target net.Network.oracle)
    in
    L.close L.Idspace t0;
    let verdict, exact =
      match r.Network.status with
      | Network.Delivered v -> (Some v, true)
      | Network.Predecessor v -> (Some v, false)
      | Network.Stuck _ -> (None, false)
    in
    (match (verdict, expect) with
     | Some v, Some e when Id.equal v.Vnode.id e && exact = inp.lk_present.(i) ->
       let t0 = L.now () in
       let d = Linkstate.distance_latency net.Network.ls from v.Vnode.hosted_at in
       let t1 = L.now () in
       L.close L.Linkstate t0;
       incr spf_calls;
       spf_us := !spf_us +. Calib.us (t1 - t0);
       (match d with
        | Some d when d > 0.0 ->
          stretch_sum := !stretch_sum +. (r.Network.latency_ms /. d);
          incr stretch_n
        | _ -> ());
       h := R.mix_id !h v.Vnode.id
     | None, _ -> incr failed
     | Some _, _ ->
       incr failed;
       incr wrong);
    h := R.mix_float (R.mix !h r.Network.msgs) r.Network.latency_ms;
    Calib.tick ()
  done;
  let c_lookup = Calib.clock () in
  (* 3. one PoP partition and heal (fig 7) *)
  let t0 = L.now () in
  let m1 = Failure.disconnect_routers net inp.pop_routers in
  let m2 = Failure.reconnect_routers net inp.pop_routers in
  L.close L.Intra t0;
  attempted := !attempted + 2;
  ops := !ops + 2;
  h := R.mix (R.mix !h m1) m2;
  let c_repair = Calib.clock () in
  Calib.tick ();
  (* 4. interdomain joins, then routes between the joined hosts (fig 8) *)
  let hosts = Array.make size.inter_hosts None in
  let ij_us = Array.make size.inter_hosts 0.0 in
  for i = 0 to size.inter_hosts - 1 do
    incr attempted;
    let t0 = L.now () in
    let o = Net.join inp.inet_net ~as_idx:inp.inter_as.(i) ~strategy:Net.Multihomed in
    let t1 = L.now () in
    L.close L.Inter t0;
    incr ops;
    ij_us.(i) <- Calib.us (t1 - t0);
    hosts.(i) <- Some o.Net.host;
    h := R.mix (R.mix_id !h o.Net.host.Net.id) (o.Net.lookup_msgs + o.Net.finger_msgs);
    Calib.tick ()
  done;
  let rt_us = Array.make size.routes 0.0 in
  let as_hops = ref 0 and cache_hops = ref 0 in
  Array.iteri
    (fun i (a, b) ->
      incr attempted;
      match (hosts.(a), hosts.(b)) with
      | Some src, Some dst ->
        let t0 = L.now () in
        let r = Route.route_from inp.inet_net ~src ~dst:dst.Net.id in
        let t1 = L.now () in
        L.close L.Inter t0;
        incr ops;
        rt_us.(i) <- Calib.us (t1 - t0);
        as_hops := !as_hops + r.Route.as_hops;
        cache_hops := !cache_hops + r.Route.cache_hops;
        if not r.Route.delivered then incr failed;
        h := R.mix (R.mix_bool !h r.Route.delivered) r.Route.as_hops;
        Calib.tick ()
      | _ -> incr failed)
    inp.route_pairs;
  let p1 = L.now () and c1 = Calib.clock () and r1 = Calib.raw_clock () in
  let gc1 = R.gc_mark () in
  let wall_s = Calib.secs (c1 -. c0) in
  let speed = wall_s /. L.secs (r1 - r0) in
  (* Ring consistency after the heal, outside the timed phase. *)
  if not (Invariant.check net).Invariant.ok then incr wrong;
  let join_s = Calib.secs (c_join -. c0) and lookup_s = Calib.secs (c_lookup -. c_join) in
  let repair_s = Calib.secs (c_repair -. c_lookup) in
  let minor, _, _ = R.gc_delta gc0 gc1 in
  let fl = float_of_int in
  let e2e =
    [
      ("joins_per_s", fl size.hosts /. join_s);
      ("lookups_per_s", fl size.lookups /. lookup_s);
      ("minor_words_per_op", minor /. fl !ops);
    ]
  in
  let layer =
    if not traced then []
    else
      let median_of a = R.median (Array.to_list a) in
      [
        ("topology.generate_s", topo_s);
        ("intra.join.calls", fl size.hosts);
        ("intra.join.us_p50", median_of join_us);
        ("intra.join.msgs", fl !join_msgs /. fl size.hosts);
        ("intra.lookup.calls", fl size.lookups);
        ("intra.lookup.us_p50", median_of lk_us);
        ("intra.lookup.hops", fl !hops /. fl size.lookups);
        ("intra.lookup.stretch", !stretch_sum /. fl (max 1 !stretch_n));
        ("intra.repair.s", repair_s);
        ("intra.repair.msgs", fl (m1 + m2));
        ("linkstate.spf.calls", fl !spf_calls);
        ("linkstate.spf.us", !spf_us /. fl (max 1 !spf_calls));
        ("inter.join.us_p50", median_of ij_us);
        ("inter.route.calls", fl size.routes);
        ("inter.route.us_p50", median_of rt_us);
        ("inter.route.as_hops", fl !as_hops /. fl size.routes);
        ("inter.route.cache_hops", fl !cache_hops /. fl size.routes);
      ]
      @ R.ledger_metrics ~p0 ~p1 ~gc0 ~gc1 ~attempted:!attempted ~failed:!failed ~not_ok:0
  in
  {
    R.setup_s; wall_s; speed; e2e; layer; attempted = !attempted; failed = !failed;
    not_ok = 0; wrong = !wrong; digest = !h; lookup_us = Array.to_list lk_us;
  }

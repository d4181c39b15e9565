(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6) as labelled text tables, runs the ablations from
   DESIGN.md, and finishes with Bechamel microbenchmarks of the core
   primitives.

     dune exec bench/main.exe                    -- everything, full scale
     dune exec bench/main.exe -- --quick         -- everything, reduced scale
     dune exec bench/main.exe -- fig6a summary   -- selected targets
     dune exec bench/main.exe -- micro           -- microbenchmarks only
     dune exec bench/main.exe -- --jobs 4 fig7   -- fan work over 4 domains

   Each run also writes BENCH.json next to the working directory, for CI
   artifacts and regression tracking.  Per target it records wall time plus
   GC deltas (minor/major words, major collections) so an allocation
   regression is a tracked number, not a claim; the micro section records
   ns/run and minor words/run per primitive (ring successor and the
   walk-step primitives must stay at 0 words/run — CI gates on it). *)

module Table = Rofl_util.Table
module E = Rofl_experiments

let targets : (string * string * (E.Common.scale -> Table.t list)) list =
  [
    ("fig5a", "intra: cumulative join overhead vs IDs", E.Fig5.fig5a);
    ("fig5b", "intra: CDF of per-host join overhead", E.Fig5.fig5b);
    ("fig5c", "intra: CDF of join latency", E.Fig5.fig5c);
    ("fig6a", "intra: stretch vs pointer-cache size", E.Fig6.fig6a);
    ("fig6b", "intra: load balance vs OSPF", E.Fig6.fig6b);
    ("fig6c", "intra: router memory vs IDs", E.Fig6.fig6c);
    ("fig7", "intra: PoP partition repair overhead", E.Fig7.fig7);
    ("fig8a", "inter: join overhead by strategy", E.Fig8.fig8a);
    ("fig8b", "inter: stretch CDF vs finger budget", E.Fig8.fig8b);
    ("fig8c", "inter: stretch vs per-AS cache; bloom peering", E.Fig8.fig8c);
    ("churn", "churn lab: steady-state SLOs under continuous churn", E.Churnlab.churn);
    ("summary", "paper §6.4 numbers vs measured", E.Summary.summary);
    ("ablate-cache", "ablation: control-path caching", E.Ablations.ablate_cache);
    ("ablate-zeroid", "ablation: zero-ID partition repair", E.Ablations.ablate_zero_id);
    ("ablate-peering", "ablation: virtual-AS vs bloom peering", E.Ablations.ablate_peering);
    ("ablate-fingers", "ablation: finger placement", E.Ablations.ablate_fingers);
    ( "ablate-multihomed",
      "ablation: redundant-lookup elimination",
      E.Ablations.ablate_multihomed );
    ("compare-compact", "compact routing vs ROFL on the same ISP", E.Compare.compact_vs_rofl);
    ("msg-sizes", "control-message wire sizes (§6.3)", E.Compare.message_sizes);
  ]

(* ---------------- per-target GC accounting ---------------- *)

type gc_cost = {
  seconds : float;
  minor_words : int;
  major_words : int;
  gc_majors : int;
}

(* OCaml 5 GC stats are per-domain: add the pool workers' tallies to the
   main domain's own delta so --jobs N runs don't under-report.  Major
   collection counts remain main-domain only (collections are per-domain
   events; the main domain's count is the stable, comparable one). *)
let measure f =
  let s0 = Gc.quick_stat () in
  let pm0 = Rofl_util.Pool.worker_minor_words () in
  let pj0 = Rofl_util.Pool.worker_major_words () in
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let seconds = Unix.gettimeofday () -. t0 in
  let s1 = Gc.quick_stat () in
  let cost =
    {
      seconds;
      minor_words =
        int_of_float (s1.Gc.minor_words -. s0.Gc.minor_words)
        + (Rofl_util.Pool.worker_minor_words () - pm0);
      major_words =
        int_of_float (s1.Gc.major_words -. s0.Gc.major_words)
        + (Rofl_util.Pool.worker_major_words () - pj0);
      gc_majors = s1.Gc.major_collections - s0.Gc.major_collections;
    }
  in
  (result, cost)

(* ---------------- Bechamel microbenchmarks ---------------- *)

(* The seed's Map-based ring, kept as an in-bench baseline so the flat
   ring's speedup is measured against the real predecessor, not remembered
   from a changelog. *)
module Id_map = Map.Make (struct
  type t = Rofl_idspace.Id.t

  let compare = Rofl_idspace.Id.compare
end)

let map_ring_successor m x =
  match Id_map.find_first_opt (fun k -> Rofl_idspace.Id.compare k x > 0) m with
  | Some kv -> Some kv
  | None -> Id_map.min_binding_opt m

type micro_row = { name : string; ns_per_run : float; minor_words_per_run : float }

let micro () =
  let open Bechamel in
  let open Toolkit in
  let module Id = Rofl_idspace.Id in
  let module Ring = Rofl_idspace.Ring in
  let rng = Rofl_util.Prng.create 99 in
  let id_a = Id.random rng and id_b = Id.random rng in
  let payload = String.init 256 (fun i -> Char.chr (i land 0xff)) in
  let bloom = Rofl_bloom.Bloom.create ~m_bits:65536 ~k:7 in
  for _ = 1 to 1000 do
    Rofl_bloom.Bloom.add bloom (Id.random rng)
  done;
  let isp = Rofl_topology.Isp.generate rng Rofl_topology.Isp.as3967 in
  let ls = Rofl_linkstate.Linkstate.create isp.Rofl_topology.Isp.graph in
  let cache = Rofl_core.Pointer_cache.create ~capacity:4096 in
  for i = 0 to 4095 do
    let dst = Id.random rng in
    let router = i mod Rofl_topology.Graph.n isp.Rofl_topology.Isp.graph in
    Rofl_core.Pointer_cache.insert cache
      (Rofl_core.Pointer.make Rofl_core.Pointer.Cached ~dst ~dst_router:router
         ~route:(Rofl_core.Sourceroute.singleton router))
  done;
  (* Steady-state eviction traffic: a full 1,024-entry cache fed 2,048
     distinct pointers round-robin, so every insert misses and evicts the
     least recently used entry. *)
  let evict_cache = Rofl_core.Pointer_cache.create ~capacity:1024 in
  let evict_ptrs =
    let erng = Rofl_util.Prng.create 0xe71c7 in
    Array.init 2048 (fun i ->
        let router = i mod Rofl_topology.Graph.n isp.Rofl_topology.Isp.graph in
        Rofl_core.Pointer.make Rofl_core.Pointer.Cached ~dst:(Id.random erng)
          ~dst_router:router ~route:(Rofl_core.Sourceroute.singleton router))
  in
  for i = 0 to 1023 do
    Rofl_core.Pointer_cache.insert evict_cache evict_ptrs.(i)
  done;
  let evict_i = ref 1024 in
  let chord = Rofl_baselines.Chord.create ~succ_group:4 ~finger_rows:128 in
  let members = Array.init 2048 (fun _ -> Id.random rng) in
  Array.iter (fun id -> ignore (Rofl_baselines.Chord.join chord id)) members;
  Rofl_baselines.Chord.refresh_fingers chord;
  (* Flat ring vs the seed's Map ring over the same 2048 members. *)
  let ring =
    Array.fold_left (fun acc id -> Ring.add id 0 acc) Ring.empty members
  in
  let map_ring =
    Array.fold_left (fun acc id -> Id_map.add id 0 acc) Id_map.empty members
  in
  let churn_i = ref 0 in
  (* Rotate queries through a precomputed pool: a fixed probe id lets the
     branch predictor learn the whole search path and under-reports both
     structures (and flatters the Map's pointer chase, which stays hot in
     cache).  512 random probes defeat the predictor without adding
     measurable per-run overhead. *)
  let probes = Array.init 512 (fun _ -> Id.random rng) in
  let succ_i = ref 0 and msucc_i = ref 0 in
  let verify_cred = Rofl_crypto.Identity.credential_for id_a in
  let verify_rng = Rofl_util.Prng.create 0x7e11f in
  let grind_rng = Rofl_util.Prng.create 0x0c4a7 in
  let tests =
    [
      Test.make ~name:"id-distance"
        (Staged.stage (fun () -> ignore (Id.distance id_a id_b)));
      Test.make ~name:"id-between"
        (Staged.stage (fun () -> ignore (Id.between_incl id_a id_b id_a)));
      Test.make ~name:"id-closer-clockwise"
        (Staged.stage (fun () -> ignore (Id.closer_clockwise ~target:id_b id_a id_b)));
      Test.make ~name:"id-compare-dist"
        (Staged.stage (fun () -> ignore (Id.compare_dist id_a id_b id_b id_a)));
      Test.make ~name:"id-hash" (Staged.stage (fun () -> ignore (Id.hash id_a)));
      Test.make ~name:"ring-successor-2k"
        (Staged.stage (fun () ->
             let i = !succ_i land 511 in
             incr succ_i;
             ignore (Ring.cursor_gt (Array.unsafe_get probes i) ring)));
      Test.make ~name:"ring-successor-map-2k"
        (Staged.stage (fun () ->
             let i = !msucc_i land 511 in
             incr msucc_i;
             ignore (map_ring_successor map_ring (Array.unsafe_get probes i))));
      Test.make ~name:"ring-churn-2k"
        (Staged.stage (fun () ->
             let i = !churn_i land 2047 in
             incr churn_i;
             ignore (Ring.remove members.(i) (Ring.add id_a 0 ring))));
      Test.make ~name:"sha256-256B"
        (Staged.stage (fun () -> ignore (Rofl_crypto.Sha256.digest payload)));
      Test.make ~name:"bloom-mem"
        (Staged.stage (fun () -> ignore (Rofl_bloom.Bloom.mem bloom id_a)));
      Test.make ~name:"spf-201-routers"
        (Staged.stage (fun () -> ignore (Rofl_linkstate.Linkstate.distance_hops ls 0 100)));
      Test.make ~name:"cache-best-match"
        (Staged.stage (fun () ->
             ignore (Rofl_core.Pointer_cache.best_match cache ~cur:id_a ~target:id_b)));
      Test.make ~name:"cache-insert-evict"
        (Staged.stage (fun () ->
             let i = !evict_i land 2047 in
             incr evict_i;
             Rofl_core.Pointer_cache.insert evict_cache (Array.unsafe_get evict_ptrs i)));
      Test.make ~name:"chord-lookup-2k"
        (Staged.stage (fun () ->
             ignore (Rofl_baselines.Chord.lookup chord ~from:members.(0) id_b)));
      (* Attack-lab rows: the defense's per-admission price (one full
         challenge/response residency handshake — what every verified join
         and failover promotion charges) and the attacker's per-draw price
         (one keypair minted and hashed while mining identifiers at an
         arc).  Gated so the verification path cannot quietly grow a
         per-admission allocation habit. *)
      Test.make ~name:"verify-handshake"
        (Staged.stage (fun () ->
             let c = Rofl_crypto.Identity.fresh_challenge verify_rng in
             let r = Rofl_crypto.Identity.respond verify_cred c in
             ignore (Rofl_crypto.Identity.check_response ~claimed:id_a c r)));
      Test.make ~name:"grind-16"
        (Staged.stage (fun () ->
             ignore
               (Rofl_crypto.Identity.grind grind_rng
                  ~accept:(fun _ -> false)
                  ~budget:16)));
    ]
  in
  let test = Test.make_grouped ~name:"rofl" ~fmt:"%s/%s" tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  (* [stabilize] (the default) runs [Gc.compact] before every sample; with
     the fixtures' live heap that eats the whole quota in compactions and
     leaves a degenerate run≈1 fit (every row ~130ns, every slope 0).  The
     run-predictor OLS already cancels GC noise across samples. *)
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances test in
  let clock_tbl = Analyze.all ols Instance.monotonic_clock raw in
  let alloc_tbl = Analyze.all ols Instance.minor_allocated raw in
  let estimate tbl name =
    match Hashtbl.find_opt tbl name with
    | Some o -> (match Analyze.OLS.estimates o with Some (e :: _) -> Some e | _ -> None)
    | None -> None
  in
  let names =
    Hashtbl.fold (fun name _ acc -> name :: acc) clock_tbl [] |> List.sort compare
  in
  let rows =
    List.map
      (fun name ->
        {
          name;
          ns_per_run = (match estimate clock_tbl name with Some e -> e | None -> nan);
          minor_words_per_run =
            (match estimate alloc_tbl name with Some e -> e | None -> nan);
        })
      names
  in
  print_endline "== Microbenchmarks (ns/run, minor words/run) ==";
  List.iter
    (fun r ->
      Printf.printf "%-40s %12.1f ns/run %10.2f w/run\n" r.name r.ns_per_run
        r.minor_words_per_run)
    rows;
  print_newline ();
  rows

(* ---------------- shard-scaling benchmark ---------------- *)

(* Throughput profile of the conservative-window coordinator on one fixed
   campaign workload, at 1 (the baseline row), 2 and 4 shards.  These are
   execution numbers only — the event fingerprint is printed per row and
   must be identical down the column, so a scaling win can never be bought
   with a divergent schedule. *)

type shard_row = {
  sh_shards : int;
  sh_windows : int;          (* synchronisation windows executed *)
  sh_events : int;           (* events executed, summed over shards *)
  sh_stall_s : float;        (* summed barrier-stall seconds *)
  sh_elapsed_s : float;      (* wall seconds inside run_until *)
  sh_events_per_s : float array; (* per shard: events / busy second *)
  sh_fingerprint : int;
}

let shard_bench quick =
  let module Prng = Rofl_util.Prng in
  let module Proto = Rofl_proto.Proto in
  let module Shard = Rofl_netsim.Shard in
  let module Isp = Rofl_topology.Isp in
  let hosts = if quick then 20_000 else 200_000 in
  let horizon_ms = 1_000.0 in
  let run shards =
    let isp = Isp.generate (Prng.create 4242) Isp.as3967 in
    let proto =
      Proto.create ~rng:(Prng.create 999)
        ~cfg:{ Proto.default_config with Proto.stabilize_period_ms = 250.0 }
        ~shards ~pool:(E.Common.pool ()) ~bootstrap_hosts:hosts isp.Isp.graph
    in
    Proto.start_stabilizer proto;
    Proto.run_for proto horizon_ms;
    Proto.stop_stabilizer proto;
    let coord = Proto.coordinator proto in
    let st = Shard.stats coord in
    {
      sh_shards = shards;
      sh_windows = st.Shard.windows;
      sh_events = Array.fold_left ( + ) 0 st.Shard.executed;
      sh_stall_s = st.Shard.stall_s;
      sh_elapsed_s = st.Shard.elapsed_s;
      sh_events_per_s =
        Array.map2
          (fun e b -> if b > 0.0 then float_of_int e /. b else 0.0)
          st.Shard.executed st.Shard.busy_s;
      sh_fingerprint = Shard.fingerprint coord;
    }
  in
  let rows = List.map run [ 1; 2; 4 ] in
  Printf.printf "== Shard scaling (%d bootstrap hosts, %.0f ms horizon) ==\n" hosts
    horizon_ms;
  List.iter
    (fun r ->
      Printf.printf
        "shards=%d  windows=%-6d events=%-9d stall=%6.2fs elapsed=%6.2fs  \
         ev/s per shard: [%s]  fingerprint=%016Lx\n"
        r.sh_shards r.sh_windows r.sh_events r.sh_stall_s r.sh_elapsed_s
        (String.concat "; "
           (Array.to_list (Array.map (Printf.sprintf "%.0f") r.sh_events_per_s)))
        (Int64.of_int r.sh_fingerprint))
    rows;
  (match rows with
   | base :: rest ->
     List.iter
       (fun r ->
         if r.sh_fingerprint <> base.sh_fingerprint then begin
           Printf.eprintf
             "shard bench: fingerprint DIVERGED at shards=%d (determinism bug)\n"
             r.sh_shards;
           exit 1
         end)
       rest
   | [] -> ());
  print_newline ();
  rows

(* ---------------- batched data-plane throughput ---------------- *)

(* Lookups/sec of the batched forwarding engine against the per-lookup
   drivers it replaces, across the three layers that expose it: the
   intradomain engine (with a batch-size sweep showing the batching knee),
   the interdomain engine, and the protocol engine's pure-read walk.
   Before anything is timed, every batched verdict is checked byte-identical
   to the sequential reference — a throughput number from a wrong data
   plane is worthless, so a mismatch exits 1.  Bechamel measures ns and
   minor words per run; rows report both divided down to per-lookup. *)

type dataplane_row = {
  dp_name : string;
  dp_lookups : int;              (* lookups per timed run *)
  dp_ns_per_lookup : float;
  dp_words_per_lookup : float;
  dp_lookups_per_s : float;
  dp_passes : int;               (* engine passes of one run; 0 = per-lookup driver *)
}

let dataplane_bench (scale : E.Common.scale) quick =
  let open Bechamel in
  let open Toolkit in
  let module Id = Rofl_idspace.Id in
  let module Isp = Rofl_topology.Isp in
  let module Network = Rofl_intra.Network in
  let module Vnode = Rofl_core.Vnode in
  let module Msg = Rofl_core.Msg in
  let module Net = Rofl_inter.Net in
  let module Route = Rofl_inter.Route in
  let module Proto = Rofl_proto.Proto in
  let module Dintra = Rofl_dataplane.Intra in
  let module Dinter = Rofl_dataplane.Inter in
  let gate_fail fmt =
    Printf.ksprintf
      (fun s ->
        Printf.eprintf "dataplane bench: EQUIVALENCE GATE FAILED: %s\n" s;
        exit 1)
      fmt
  in
  (* --- intradomain: the memoised figure-scale ISP net --- *)
  let profile = if quick then Isp.as3967 else Isp.as1239 in
  let profile =
    if List.mem profile scale.E.Common.isps then profile
    else List.hd scale.E.Common.isps
  in
  let run = E.Common.default_intra_run scale profile in
  let net = run.E.Common.net and ids = run.E.Common.ids in
  let total = if quick then 2048 else 8192 in
  let rng = Rofl_util.Prng.create (scale.E.Common.seed + 77) in
  let from = Array.init total (fun _ -> run.E.Common.gateway ()) in
  let targets =
    Array.init total (fun k ->
        if k mod 4 = 3 then Id.random rng else ids.(k * 7 mod Array.length ids))
  in
  let same_status a b =
    match (a, b) with
    | Network.Delivered x, Network.Delivered y
    | Network.Predecessor x, Network.Predecessor y ->
      Id.equal x.Vnode.id y.Vnode.id
    | Network.Stuck x, Network.Stuck y -> x = y
    | _ -> false
  in
  (* Gate 1: engine vs [Network.lookup], per lookup from identical state. *)
  let dpg = Dintra.create net in
  let gate = min 256 total in
  for k = 0 to gate - 1 do
    Dintra.run dpg ~from:[| from.(k) |] ~targets:[| targets.(k) |];
    let r =
      Network.lookup net ~from:from.(k) ~target:targets.(k) ~category:Msg.data
        ~use_cache:true
    in
    if
      (not (same_status (Dintra.status dpg 0) r.Network.status))
      || Dintra.msgs dpg 0 <> r.Network.msgs
      || Dintra.latency_ms dpg 0 <> r.Network.latency_ms
    then
      gate_fail "intra lookup %d: engine %d msgs vs walk %d msgs" k
        (Dintra.msgs dpg 0) r.Network.msgs;
    Dintra.apply_nacks dpg
  done;
  (* Gate 2: batched vs sequential over the whole set (both read-only). *)
  let dp = Dintra.create net in
  let dps = Dintra.create net in
  Dintra.run dp ~from ~targets;
  Dintra.run_sequential dps ~from ~targets;
  for k = 0 to total - 1 do
    if
      (not (same_status (Dintra.status dp k) (Dintra.status dps k)))
      || Dintra.msgs dp k <> Dintra.msgs dps k
      || Dintra.latency_ms dp k <> Dintra.latency_ms dps k
      || Dintra.restarts dp k <> Dintra.restarts dps k
    then gate_fail "intra batch/sequential diverge at lookup %d" k
  done;
  let full_passes = Dintra.passes dp in
  (* Chunks are pre-sliced so the timed thunks allocate nothing of their
     own; the engine reuses its registers across runs. *)
  let batch_sizes = List.filter (fun b -> b <= total) [ 1; 8; 64; 512; 4096 ] in
  let chunks b =
    Array.init
      ((total + b - 1) / b)
      (fun c ->
        let off = c * b in
        let len = min b (total - off) in
        (Array.sub from off len, Array.sub targets off len))
  in
  let intra_tests =
    Test.make ~name:"walk-driver"
      (Staged.stage (fun () ->
           for k = 0 to total - 1 do
             ignore
               (Network.lookup net ~from:from.(k) ~target:targets.(k)
                  ~category:Msg.data ~use_cache:true)
           done))
    :: Test.make ~name:"engine-seq"
         (Staged.stage (fun () -> Dintra.run_sequential dp ~from ~targets))
    :: List.map
         (fun b ->
           let cs = chunks b in
           Test.make ~name:(Printf.sprintf "batch-%d" b)
             (Staged.stage (fun () ->
                  Array.iter (fun (f, t) -> Dintra.run dp ~from:f ~targets:t) cs)))
         batch_sizes
  in
  (* --- interdomain: figure-scale Internet, single-homed population --- *)
  let irun =
    E.Common.build_inter ~seed:scale.E.Common.seed
      ~hosts:(min scale.E.Common.inter_hosts (if quick then 1_500 else 6_000))
      ~strategy:Net.Single_homed scale.E.Common.inter_params
  in
  let inet = irun.E.Common.net and ihosts = irun.E.Common.hosts_arr in
  let itotal = if quick then 512 else 2048 in
  let isrcs =
    Array.init itotal (fun k -> ihosts.(k * 13 mod Array.length ihosts))
  in
  let idsts =
    Array.init itotal (fun k ->
        if k mod 5 = 4 then Id.random rng
        else ihosts.(((k * 7) + 3) mod Array.length ihosts).Net.id)
  in
  let di = Dinter.create inet in
  Dinter.run di ~srcs:isrcs ~dsts:idsts;
  let inter_passes = Dinter.passes di in
  for k = 0 to itotal - 1 do
    let r = Route.route_from inet ~src:isrcs.(k) ~dst:idsts.(k) in
    if
      Dinter.delivered di k <> r.Route.delivered
      || Dinter.as_hops di k <> r.Route.as_hops
      || Dinter.pointer_hops di k <> r.Route.pointer_hops
      || Dinter.cache_hops di k <> r.Route.cache_hops
    then gate_fail "inter lookup %d: engine/route_from diverge" k;
    Dinter.apply_purges di
  done;
  let inter_tests =
    [
      Test.make ~name:"inter-route-driver"
        (Staged.stage (fun () ->
             for k = 0 to itotal - 1 do
               ignore (Route.route_from inet ~src:isrcs.(k) ~dst:idsts.(k))
             done));
      Test.make ~name:"inter-batch"
        (Staged.stage (fun () -> Dinter.run di ~srcs:isrcs ~dsts:idsts));
    ]
  in
  (* --- protocol engine: pure-read walk over actor tables --- *)
  let isp = run.E.Common.isp in
  let proto =
    Proto.create
      ~rng:(Rofl_util.Prng.create (scale.E.Common.seed + 5))
      ~bootstrap_hosts:(if quick then 2_000 else 10_000)
      isp.Isp.graph
  in
  let pn = Rofl_topology.Graph.n isp.Isp.graph in
  let members = Array.of_list (Proto.members proto) in
  let ptotal = if quick then 2048 else 8192 in
  let pfrom = Array.init ptotal (fun k -> k * 31 mod pn) in
  let ptargets =
    Array.init ptotal (fun k ->
        if k mod 4 = 3 then Id.random rng
        else members.(k * 11 mod Array.length members))
  in
  let pres = Proto.lookup_owner_batch proto ~from:pfrom ~targets:ptargets in
  Array.iteri
    (fun k expect ->
      let got = Proto.lookup_owner proto ~from:pfrom.(k) ptargets.(k) in
      let same =
        match (expect, got) with
        | None, None -> true
        | Some a, Some b -> Id.equal a b
        | _ -> false
      in
      if not same then gate_fail "proto lookup %d: batch/lookup_owner diverge" k)
    pres;
  let proto_tests =
    [
      Test.make ~name:"proto-walk-driver"
        (Staged.stage (fun () ->
             for k = 0 to ptotal - 1 do
               ignore (Proto.lookup_owner proto ~from:pfrom.(k) ptargets.(k))
             done));
      Test.make ~name:"proto-batch"
        (Staged.stage (fun () ->
             ignore (Proto.lookup_owner_batch proto ~from:pfrom ~targets:ptargets)));
    ]
  in
  Printf.printf
    "equivalence gates passed: %d intra walks, %d inter routes, %d proto walks\n"
    gate itotal ptotal;
  (* --- measure --- *)
  let groups =
    [
      ("intra", intra_tests, total);
      ("inter", inter_tests, itotal);
      ("proto", proto_tests, ptotal);
    ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~stabilize:false ()
  in
  let rows =
    List.concat_map
      (fun (group, tests, lookups) ->
        let test = Test.make_grouped ~name:group ~fmt:"%s/%s" tests in
        let raw = Benchmark.all cfg instances test in
        let clock_tbl = Analyze.all ols Instance.monotonic_clock raw in
        let alloc_tbl = Analyze.all ols Instance.minor_allocated raw in
        let estimate tbl name =
          match Hashtbl.find_opt tbl name with
          | Some o ->
            (match Analyze.OLS.estimates o with Some (e :: _) -> Some e | _ -> None)
          | None -> None
        in
        Hashtbl.fold (fun name _ acc -> name :: acc) clock_tbl []
        |> List.sort compare
        |> List.map (fun name ->
               let ns_run =
                 match estimate clock_tbl name with Some e -> e | None -> nan
               in
               let w_run =
                 match estimate alloc_tbl name with Some e -> e | None -> nan
               in
               let l = float_of_int lookups in
               let short =
                 match String.index_opt name '/' with
                 | Some i -> String.sub name (i + 1) (String.length name - i - 1)
                 | None -> name
               in
               {
                 dp_name = short;
                 dp_lookups = lookups;
                 dp_ns_per_lookup = ns_run /. l;
                 dp_words_per_lookup = w_run /. l;
                 dp_lookups_per_s =
                   (if ns_run > 0.0 then l /. (ns_run *. 1e-9) else nan);
                 dp_passes =
                   (match short with
                   | "engine-seq" -> 0
                   | "inter-batch" -> inter_passes
                   | s when String.length s > 6 && String.sub s 0 6 = "batch-" ->
                     full_passes
                   | _ -> 0);
               }))
      groups
  in
  Printf.printf
    "== Data-plane throughput (%s, %d/%d/%d lookups per run) ==\n"
    profile.Isp.profile_name total itotal ptotal;
  List.iter
    (fun r ->
      Printf.printf "%-24s %12.0f lookups/s %10.1f ns/lookup %10.3f w/lookup\n"
        r.dp_name r.dp_lookups_per_s r.dp_ns_per_lookup r.dp_words_per_lookup)
    rows;
  print_newline ();
  rows

(* ---------------- service-discovery throughput ---------------- *)

(* Resolutions/sec of the service layer's three hot paths over one placed
   directory: cache hits (local answers), cache misses (fused owner walks +
   record reads + cache installs, measured against a capacity-0 directory so
   every run actually walks), and the republish sweep.  As with the data
   plane, correctness is gated before anything is timed: every resolution
   must carry the oracle-correct sign, hits must hit and misses must miss —
   a throughput number from a wrong resolver is worthless. *)

type services_row = {
  sv_name : string;
  sv_resolutions : int;           (* operations per timed run *)
  sv_ns_per_resolution : float;
  sv_words_per_resolution : float;
  sv_resolutions_per_s : float;
}

let services_bench (scale : E.Common.scale) quick =
  let open Bechamel in
  let open Toolkit in
  let module Id = Rofl_idspace.Id in
  let module Isp = Rofl_topology.Isp in
  let module Proto = Rofl_proto.Proto in
  let module Directory = Rofl_services.Directory in
  let module Resolver = Rofl_services.Resolver in
  let gate_fail fmt =
    Printf.ksprintf
      (fun s ->
        Printf.eprintf "services bench: CORRECTNESS GATE FAILED: %s\n" s;
        exit 1)
      fmt
  in
  let rng = Rofl_util.Prng.create (scale.E.Common.seed + 31) in
  let profile = if quick then Isp.as3967 else Isp.as1239 in
  let profile =
    if List.mem profile scale.E.Common.isps then profile
    else List.hd scale.E.Common.isps
  in
  let isp = Isp.generate rng profile in
  let proto =
    Proto.create
      ~rng:(Rofl_util.Prng.create (scale.E.Common.seed + 32))
      ~bootstrap_hosts:(if quick then 2_000 else 10_000)
      isp.Isp.graph
  in
  let gateways = Array.of_list (Isp.edge_routers isp) in
  let services = if quick then 200 else 400 in
  let providers = 2 in
  let routers = Rofl_topology.Graph.n isp.Isp.graph in
  let make_dir capacity =
    let dir =
      Directory.create ~proto ~routers ~hint:(services * providers)
        {
          Directory.default_config with
          Directory.cache =
            { Resolver.default_config with Resolver.capacity };
        }
    in
    for rank = 1 to services do
      let service = Id.random (Rofl_util.Prng.create (Hashtbl.hash (rank, 0x5e1))) in
      for j = 0 to providers - 1 do
        ignore
          (Directory.register dir ~service ~provider:(Id.random rng)
             ~origin:gateways.(Hashtbl.hash (rank, j) mod Array.length gateways))
      done
    done;
    (* Place every record through the batched data plane (synchronous
       pure-read walks; no engine time needed at a quiescent ring). *)
    ignore (Directory.republish_due dir ~now:0.0);
    dir
  in
  let dir_hit = make_dir Resolver.default_config.Resolver.capacity in
  let dir_miss = make_dir 0 in
  let total = if quick then 2048 else 8192 in
  let from =
    Array.init total (fun k -> gateways.(k * 13 mod Array.length gateways))
  in
  let svcs =
    Array.init total (fun k ->
        Id.random (Rofl_util.Prng.create (Hashtbl.hash ((k mod services) + 1, 0x5e1))))
  in
  (* Warm the hit directory's caches, then gate both paths. *)
  Directory.resolve_batch dir_hit ~now:0.0 ~n:total ~from ~services:svcs;
  Directory.resolve_batch dir_hit ~now:0.0 ~n:total ~from ~services:svcs;
  for k = 0 to total - 1 do
    if not (Directory.res_hit dir_hit k) then
      gate_fail "warmed resolution %d missed the cache" k;
    if not (Directory.res_ok dir_hit k) then
      gate_fail "hit resolution %d disagrees with the intent oracle" k
  done;
  Directory.resolve_batch dir_miss ~now:0.0 ~n:total ~from ~services:svcs;
  for k = 0 to total - 1 do
    if Directory.res_hit dir_miss k then
      gate_fail "capacity-0 resolution %d hit a cache" k;
    if not (Directory.res_ok dir_miss k) then
      gate_fail "miss resolution %d disagrees with the intent oracle" k
  done;
  let intents = Directory.intent_count dir_hit in
  let tests =
    [
      Test.make ~name:"svc-resolve-hit"
        (Staged.stage (fun () ->
             Directory.resolve_batch dir_hit ~now:0.0 ~n:total ~from ~services:svcs));
      Test.make ~name:"svc-resolve-miss"
        (Staged.stage (fun () ->
             Directory.resolve_batch dir_miss ~now:0.0 ~n:total ~from ~services:svcs));
      Test.make ~name:"svc-republish"
        (Staged.stage (fun () -> ignore (Directory.republish_all dir_hit ~now:0.0)));
    ]
  in
  let ops name = if name = "svc-republish" then intents else total in
  let test = Test.make_grouped ~name:"services" ~fmt:"%s/%s" tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~stabilize:false () in
  let raw = Benchmark.all cfg instances test in
  let clock_tbl = Analyze.all ols Instance.monotonic_clock raw in
  let alloc_tbl = Analyze.all ols Instance.minor_allocated raw in
  let estimate tbl name =
    match Hashtbl.find_opt tbl name with
    | Some o -> (match Analyze.OLS.estimates o with Some (e :: _) -> Some e | _ -> None)
    | None -> None
  in
  let rows =
    Hashtbl.fold (fun name _ acc -> name :: acc) clock_tbl []
    |> List.sort compare
    |> List.map (fun name ->
           let short =
             match String.index_opt name '/' with
             | Some i -> String.sub name (i + 1) (String.length name - i - 1)
             | None -> name
           in
           let n = float_of_int (ops short) in
           let ns_run = match estimate clock_tbl name with Some e -> e | None -> nan in
           let w_run = match estimate alloc_tbl name with Some e -> e | None -> nan in
           {
             sv_name = short;
             sv_resolutions = ops short;
             sv_ns_per_resolution = ns_run /. n;
             sv_words_per_resolution = w_run /. n;
             sv_resolutions_per_s = (if ns_run > 0.0 then n /. (ns_run *. 1e-9) else nan);
           })
  in
  Printf.printf
    "== Service-discovery throughput (%s, %d services x %d providers, %d \
     resolutions per run, gates passed) ==\n"
    profile.Isp.profile_name services providers total;
  List.iter
    (fun r ->
      Printf.printf "%-24s %12.0f resolutions/s %10.1f ns/resolution %10.3f w/resolution\n"
        r.sv_name r.sv_resolutions_per_s r.sv_ns_per_resolution
        r.sv_words_per_resolution)
    rows;
  print_newline ();
  rows

(* ---------------- alpha-parallel lookup throughput ---------------- *)

(* Lookups/sec of the α-parallel register file at α ∈ {1, 2, 4} over one
   bootstrapped ring with pointer caches enabled, so the diversified branch
   starts are live.  α=1 is gated byte-identical to the sequential
   [Proto_batch] walk (status, owner, hops, latency) and α>1 is gated to
   the sequential verdict with an empty freelist — a throughput number from
   a wrong or slot-leaking engine is worthless.  Rows report the
   duplicate-work price alongside the rate: wasted ring hops per lookup is
   what redundancy costs, and the gate keeps it a tracked number. *)

type alpha_row = {
  al_name : string;
  al_alpha : int;
  al_lookups : int;              (* lookups per timed run *)
  al_ns_per_lookup : float;
  al_words_per_lookup : float;
  al_lookups_per_s : float;
  al_wasted_per_lookup : float;  (* losing-branch ring hops per lookup *)
}

let alpha_bench (scale : E.Common.scale) quick =
  let open Bechamel in
  let open Toolkit in
  let module Id = Rofl_idspace.Id in
  let module Isp = Rofl_topology.Isp in
  let module Proto = Rofl_proto.Proto in
  let module Proto_batch = Rofl_dataplane.Proto_batch in
  let module Alpha = Rofl_dataplane.Alpha in
  let gate_fail fmt =
    Printf.ksprintf
      (fun s ->
        Printf.eprintf "alpha bench: EQUIVALENCE GATE FAILED: %s\n" s;
        exit 1)
      fmt
  in
  let rng = Rofl_util.Prng.create (scale.E.Common.seed + 91) in
  let profile = if quick then Isp.as3967 else Isp.as1239 in
  let profile =
    if List.mem profile scale.E.Common.isps then profile
    else List.hd scale.E.Common.isps
  in
  let isp = Isp.generate rng profile in
  let proto =
    Proto.create
      ~rng:(Rofl_util.Prng.create (scale.E.Common.seed + 92))
      ~cfg:{ Proto.default_config with Proto.pcache_capacity = 8 }
      ~bootstrap_hosts:(if quick then 2_000 else 10_000)
      isp.Isp.graph
  in
  let pn = Rofl_topology.Graph.n isp.Isp.graph in
  let members = Array.of_list (Proto.members proto) in
  let total = if quick then 2048 else 8192 in
  let from = Array.init total (fun k -> k * 31 mod pn) in
  let targets =
    Array.init total (fun k ->
        if k mod 4 = 3 then Id.random rng
        else members.(k * 11 mod Array.length members))
  in
  (* Gate 1: α=1 must be byte-identical to the sequential register file. *)
  let pb = Proto_batch.create ~hint:total proto in
  let a1 = Alpha.create ~hint:total ~alpha:1 proto in
  for k = 0 to total - 1 do
    ignore (Proto_batch.stage pb ~from:from.(k) ~target:targets.(k));
    ignore (Alpha.stage a1 ~from:from.(k) ~target:targets.(k))
  done;
  Proto_batch.run pb;
  Alpha.run a1;
  for k = 0 to total - 1 do
    if
      Proto_batch.resolved pb k <> Alpha.resolved a1 k
      || Proto_batch.owner_router pb k <> Alpha.owner_router a1 k
      || Proto_batch.ring_hops pb k <> Alpha.ring_hops a1 k
      || Proto_batch.link_hops pb k <> Alpha.link_hops a1 k
      || Proto_batch.latency_ms pb k <> Alpha.latency_ms a1 k
      || Alpha.wasted_hops a1 k <> 0
    then gate_fail "alpha=1 diverges from Proto_batch at lookup %d" k
  done;
  (* Gate 2: any α agrees with the sequential verdict; freelist drains. *)
  let gate = min 256 total in
  let files =
    List.map
      (fun alpha -> (alpha, Alpha.create ~hint:total ~alpha proto))
      [ 1; 2; 4 ]
  in
  List.iter
    (fun (alpha, ab) ->
      Alpha.clear ab;
      for k = 0 to total - 1 do
        ignore (Alpha.stage ab ~from:from.(k) ~target:targets.(k))
      done;
      Alpha.run ab;
      if Alpha.slots_in_flight ab <> 0 then
        gate_fail "alpha=%d stranded %d branch slot(s)" alpha
          (Alpha.slots_in_flight ab);
      for k = 0 to gate - 1 do
        let seq = Proto.lookup_owner proto ~from:from.(k) targets.(k) in
        let same =
          match (seq, Alpha.resolved ab k) with
          | Some owner, true -> Id.equal owner (Alpha.owner_id ab k)
          | None, false -> true
          | _ -> false
        in
        if not same then
          gate_fail "alpha=%d verdict diverges from sequential at lookup %d"
            alpha k
      done)
    files;
  (* Duplicate-work price, measured outside the timed loop: one more full
     run per file, the wasted-ledger delta divided down to per-lookup. *)
  let wasted_per_lookup =
    List.map
      (fun (alpha, ab) ->
        let w0 = Alpha.total_wasted_hops ab in
        Alpha.clear ab;
        for k = 0 to total - 1 do
          ignore (Alpha.stage ab ~from:from.(k) ~target:targets.(k))
        done;
        Alpha.run ab;
        ( alpha,
          float_of_int (Alpha.total_wasted_hops ab - w0) /. float_of_int total ))
      files
  in
  Printf.printf
    "equivalence gates passed: %d byte-identity walks at alpha=1, %d verdicts \
     per alpha\n"
    total gate;
  let tests =
    List.map
      (fun (alpha, ab) ->
        Test.make ~name:(Printf.sprintf "alpha-%d" alpha)
          (Staged.stage (fun () ->
               Alpha.clear ab;
               for k = 0 to total - 1 do
                 ignore (Alpha.stage ab ~from:from.(k) ~target:targets.(k))
               done;
               Alpha.run ab)))
      files
  in
  let test = Test.make_grouped ~name:"alpha" ~fmt:"%s/%s" tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~stabilize:false () in
  let raw = Benchmark.all cfg instances test in
  let clock_tbl = Analyze.all ols Instance.monotonic_clock raw in
  let alloc_tbl = Analyze.all ols Instance.minor_allocated raw in
  let estimate tbl name =
    match Hashtbl.find_opt tbl name with
    | Some o -> (match Analyze.OLS.estimates o with Some (e :: _) -> Some e | _ -> None)
    | None -> None
  in
  let rows =
    Hashtbl.fold (fun name _ acc -> name :: acc) clock_tbl []
    |> List.sort compare
    |> List.map (fun name ->
           let short =
             match String.index_opt name '/' with
             | Some i -> String.sub name (i + 1) (String.length name - i - 1)
             | None -> name
           in
           let alpha =
             match String.rindex_opt short '-' with
             | Some i ->
               (match
                  int_of_string_opt
                    (String.sub short (i + 1) (String.length short - i - 1))
                with
               | Some a -> a
               | None -> 1)
             | None -> 1
           in
           let ns_run = match estimate clock_tbl name with Some e -> e | None -> nan in
           let w_run = match estimate alloc_tbl name with Some e -> e | None -> nan in
           let l = float_of_int total in
           {
             al_name = short;
             al_alpha = alpha;
             al_lookups = total;
             al_ns_per_lookup = ns_run /. l;
             al_words_per_lookup = w_run /. l;
             al_lookups_per_s = (if ns_run > 0.0 then l /. (ns_run *. 1e-9) else nan);
             al_wasted_per_lookup =
               (match List.assoc_opt alpha wasted_per_lookup with
               | Some w -> w
               | None -> nan);
           })
  in
  Printf.printf
    "== Alpha-parallel lookup throughput (%s, %d lookups per run, gates \
     passed) ==\n"
    profile.Isp.profile_name total;
  List.iter
    (fun r ->
      Printf.printf
        "%-24s %12.0f lookups/s %10.1f ns/lookup %10.3f w/lookup %8.2f wasted \
         hops/lookup\n"
        r.al_name r.al_lookups_per_s r.al_ns_per_lookup r.al_words_per_lookup
        r.al_wasted_per_lookup)
    rows;
  print_newline ();
  rows

(* ---------------- driver ---------------- *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f = if Float.is_nan f then "null" else Printf.sprintf "%.3f" f

let write_bench_json ~path ~quick ~jobs ~seed timings shard_rows micro_rows
    dataplane_rows services_rows alpha_rows =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"scale\": \"%s\",\n" (if quick then "quick" else "full");
  Printf.fprintf oc "  \"jobs\": %d,\n" jobs;
  Printf.fprintf oc "  \"seed\": %d,\n" seed;
  Printf.fprintf oc "  \"total_seconds\": %.3f,\n"
    (List.fold_left (fun acc (_, c) -> acc +. c.seconds) 0.0 timings);
  Printf.fprintf oc "  \"targets\": {\n";
  List.iteri
    (fun i (name, c) ->
      Printf.fprintf oc
        "    \"%s\": {\"seconds\": %.3f, \"minor_words\": %d, \"major_words\": %d, \
         \"gc_majors\": %d}%s\n"
        (json_escape name) c.seconds c.minor_words c.major_words c.gc_majors
        (if i = List.length timings - 1 then "" else ","))
    timings;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"shards\": [\n";
  List.iteri
    (fun i (r : shard_row) ->
      Printf.fprintf oc
        "    {\"shards\": %d, \"windows\": %d, \"events\": %d, \"stall_s\": %.3f, \
         \"elapsed_s\": %.3f, \"events_per_s\": [%s], \"fingerprint\": \"%016Lx\"}%s\n"
        r.sh_shards r.sh_windows r.sh_events r.sh_stall_s r.sh_elapsed_s
        (String.concat ", "
           (Array.to_list (Array.map (Printf.sprintf "%.0f") r.sh_events_per_s)))
        (Int64.of_int r.sh_fingerprint)
        (if i = List.length shard_rows - 1 then "" else ","))
    shard_rows;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"micro\": {\n";
  List.iteri
    (fun i (r : micro_row) ->
      Printf.fprintf oc
        "    \"%s\": {\"ns_per_run\": %s, \"minor_words_per_run\": %s}%s\n"
        (json_escape r.name) (json_float r.ns_per_run)
        (json_float r.minor_words_per_run)
        (if i = List.length micro_rows - 1 then "" else ","))
    micro_rows;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"dataplane\": {\n";
  List.iteri
    (fun i (r : dataplane_row) ->
      Printf.fprintf oc
        "    \"%s\": {\"lookups\": %d, \"lookups_per_s\": %s, \"ns_per_lookup\": %s, \
         \"minor_words_per_lookup\": %s, \"passes\": %d}%s\n"
        (json_escape r.dp_name) r.dp_lookups
        (json_float r.dp_lookups_per_s)
        (json_float r.dp_ns_per_lookup)
        (json_float r.dp_words_per_lookup) r.dp_passes
        (if i = List.length dataplane_rows - 1 then "" else ","))
    dataplane_rows;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"services\": {\n";
  List.iteri
    (fun i (r : services_row) ->
      Printf.fprintf oc
        "    \"%s\": {\"resolutions\": %d, \"resolutions_per_s\": %s, \
         \"ns_per_resolution\": %s, \"minor_words_per_resolution\": %s}%s\n"
        (json_escape r.sv_name) r.sv_resolutions
        (json_float r.sv_resolutions_per_s)
        (json_float r.sv_ns_per_resolution)
        (json_float r.sv_words_per_resolution)
        (if i = List.length services_rows - 1 then "" else ","))
    services_rows;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"alpha\": {\n";
  List.iteri
    (fun i (r : alpha_row) ->
      Printf.fprintf oc
        "    \"%s\": {\"alpha\": %d, \"lookups\": %d, \"lookups_per_s\": %s, \
         \"ns_per_lookup\": %s, \"minor_words_per_lookup\": %s, \
         \"wasted_hops_per_lookup\": %s}%s\n"
        (json_escape r.al_name) r.al_alpha r.al_lookups
        (json_float r.al_lookups_per_s)
        (json_float r.al_ns_per_lookup)
        (json_float r.al_words_per_lookup)
        (json_float r.al_wasted_per_lookup)
        (if i = List.length alpha_rows - 1 then "" else ","))
    alpha_rows;
  Printf.fprintf oc "  }\n}\n";
  close_out oc

(* ---------------- allocation-regression gate ---------------- *)

(* BENCH.baseline.json holds the blessed [minor_words_per_run] per micro
   row.  The format is the "micro" object of BENCH.json, so the file can be
   refreshed by copying rows out of a trusted run.  Parsed line-by-line
   against the exact shape [write_bench_json] emits — no JSON dependency. *)

let find_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

let field_value line field =
  match find_substring line field with
  | None -> None
  | Some i ->
    let start = i + String.length field in
    let rest = String.sub line start (String.length line - start) in
    let stop =
      match (String.index_opt rest ',', String.index_opt rest '}') with
      | Some a, Some b -> min a b
      | Some a, None | None, Some a -> a
      | None, None -> String.length rest
    in
    float_of_string_opt (String.trim (String.sub rest 0 stop))

(* Returns (micro rows: name * words/run, dataplane rows: name * words/lookup
   * lookups/s, services rows: name * words/resolution * resolutions/s, alpha
   rows: the same pair as dataplane).  The row kinds are told apart by which
   fields the line carries — alpha rows carry the same per-lookup fields as
   dataplane rows plus a distinguishing ["alpha"] field, so that one is
   tested first — and one baseline file can hold all sections verbatim. *)
let baseline_rows path =
  let ic = open_in path in
  let micro = ref [] and dataplane = ref [] and services = ref [] in
  let alpha = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if String.length line > 1 && line.[0] = '"' then begin
         match String.index_from_opt line 1 '"' with
         | None -> ()
         | Some close -> (
           let name = String.sub line 1 (close - 1) in
           match
             ( field_value line "\"minor_words_per_lookup\":",
               field_value line "\"lookups_per_s\":" )
           with
           | Some w, Some rate ->
             if field_value line "\"alpha\":" <> None then
               alpha := (name, w, rate) :: !alpha
             else dataplane := (name, w, rate) :: !dataplane
           | _ -> (
             match
               ( field_value line "\"minor_words_per_resolution\":",
                 field_value line "\"resolutions_per_s\":" )
             with
             | Some w, Some rate -> services := (name, w, rate) :: !services
             | _ -> (
               match field_value line "\"minor_words_per_run\":" with
               | Some f -> micro := (name, f) :: !micro
               | None -> ())))
       end
     done
   with End_of_file -> ());
  close_in ic;
  (List.rev !micro, List.rev !dataplane, List.rev !services, List.rev !alpha)

(* Fail when a gated row allocates >25% more minor words per run than the
   baseline.  The +0.5-word slack keeps allocation-free rows (baseline 0)
   from tripping on OLS fit noise while still catching any real box: the
   smallest possible allocation is a 2-word block, well above the slack. *)
let check_alloc ~baseline rows =
  let failures = ref 0 in
  List.iter
    (fun (name, base) ->
      match List.find_opt (fun (r : micro_row) -> r.name = name) rows with
      | None ->
        Printf.printf "alloc-gate: %-36s MISSING from this run\n" name;
        incr failures
      | Some r ->
        let limit = (base *. 1.25) +. 0.5 in
        let ok = r.minor_words_per_run <= limit in
        Printf.printf
          "alloc-gate: %-36s %9.2f w/run (baseline %8.2f, limit %8.2f) %s\n"
          name r.minor_words_per_run base limit
          (if ok then "ok" else "FAIL");
        if not ok then incr failures)
    baseline;
  !failures

(* The throughput side of the gate: a dataplane row may not allocate more
   than the micro-style words limit, and may not fall below half the
   baseline's lookups/sec.  Wall-clock on shared CI runners is noisy, so
   the 50% margin catches a lost optimisation (batching regressions cost
   integer factors), not scheduler jitter. *)
let check_dataplane ~baseline rows =
  let failures = ref 0 in
  List.iter
    (fun (name, base_w, base_rate) ->
      match List.find_opt (fun (r : dataplane_row) -> r.dp_name = name) rows with
      | None ->
        Printf.printf "dataplane-gate: %-24s MISSING from this run\n" name;
        incr failures
      | Some r ->
        let w_limit = (base_w *. 1.25) +. 0.5 in
        let rate_floor = base_rate *. 0.5 in
        let w_ok = r.dp_words_per_lookup <= w_limit in
        let rate_ok = r.dp_lookups_per_s >= rate_floor in
        Printf.printf
          "dataplane-gate: %-24s %8.3f w/lookup (limit %8.3f) %12.0f lookups/s \
           (floor %12.0f) %s\n"
          name r.dp_words_per_lookup w_limit r.dp_lookups_per_s rate_floor
          (if w_ok && rate_ok then "ok"
           else if w_ok then "FAIL(throughput)"
           else "FAIL(alloc)");
        if not (w_ok && rate_ok) then incr failures)
    baseline;
  !failures

(* Services rows gate the same two axes as the dataplane: minor words per
   resolution (25% + slack) and a 50%-of-baseline resolutions/sec floor. *)
let check_services ~baseline rows =
  let failures = ref 0 in
  List.iter
    (fun (name, base_w, base_rate) ->
      match List.find_opt (fun (r : services_row) -> r.sv_name = name) rows with
      | None ->
        Printf.printf "services-gate: %-24s MISSING from this run\n" name;
        incr failures
      | Some r ->
        let w_limit = (base_w *. 1.25) +. 0.5 in
        let rate_floor = base_rate *. 0.5 in
        let w_ok = r.sv_words_per_resolution <= w_limit in
        let rate_ok = r.sv_resolutions_per_s >= rate_floor in
        Printf.printf
          "services-gate: %-24s %8.3f w/resolution (limit %8.3f) %12.0f \
           resolutions/s (floor %12.0f) %s\n"
          name r.sv_words_per_resolution w_limit r.sv_resolutions_per_s rate_floor
          (if w_ok && rate_ok then "ok"
           else if w_ok then "FAIL(throughput)"
           else "FAIL(alloc)");
        if not (w_ok && rate_ok) then incr failures)
    baseline;
  !failures

(* Alpha rows gate words/lookup (25% + slack) and a 50%-of-baseline
   lookups/sec floor, exactly like the dataplane: losing the allocation-free
   walk or the register-reuse discipline at α>1 costs integer factors, which
   the margin catches through CI scheduler noise. *)
let check_alpha ~baseline rows =
  let failures = ref 0 in
  List.iter
    (fun (name, base_w, base_rate) ->
      match List.find_opt (fun (r : alpha_row) -> r.al_name = name) rows with
      | None ->
        Printf.printf "alpha-gate: %-24s MISSING from this run\n" name;
        incr failures
      | Some r ->
        let w_limit = (base_w *. 1.25) +. 0.5 in
        let rate_floor = base_rate *. 0.5 in
        let w_ok = r.al_words_per_lookup <= w_limit in
        let rate_ok = r.al_lookups_per_s >= rate_floor in
        Printf.printf
          "alpha-gate: %-24s %8.3f w/lookup (limit %8.3f) %12.0f lookups/s \
           (floor %12.0f) %s\n"
          name r.al_words_per_lookup w_limit r.al_lookups_per_s rate_floor
          (if w_ok && rate_ok then "ok"
           else if w_ok then "FAIL(throughput)"
           else "FAIL(alloc)");
        if not (w_ok && rate_ok) then incr failures)
    baseline;
  !failures

let () =
  Rofl_util.Logging.setup ();
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  let args = List.filter (fun a -> a <> "--quick") args in
  let csv_dir = ref None in
  let rec strip_csv = function
    | "--csv" :: dir :: rest ->
      csv_dir := Some dir;
      strip_csv rest
    | x :: rest -> x :: strip_csv rest
    | [] -> []
  in
  let args = strip_csv args in
  let check_alloc_path = ref None in
  let rec strip_check = function
    | "--check-alloc" :: path :: rest ->
      check_alloc_path := Some path;
      strip_check rest
    | x :: rest -> x :: strip_check rest
    | [] -> []
  in
  let args = strip_check args in
  let rec strip_jobs = function
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
       | Some j -> E.Common.set_jobs j
       | None ->
         Printf.eprintf "bad --jobs value %S (expected an integer)\n" n;
         exit 2);
      strip_jobs rest
    | x :: rest -> x :: strip_jobs rest
    | [] -> []
  in
  let args = strip_jobs args in
  let scale = if quick then E.Common.quick else E.Common.full in
  let wanted =
    match args with
    | [] ->
      List.map (fun (n, _, _) -> n) targets
      @ [ "shards"; "micro"; "dataplane"; "services"; "alpha" ]
    | _ -> args
  in
  Printf.printf "ROFL reproduction benchmarks (%s scale, seed %d, %d jobs)\n\n"
    (if quick then "quick" else "full")
    scale.E.Common.seed (E.Common.jobs ());
  let timings = ref [] in
  let micro_rows = ref [] in
  let shard_rows = ref [] in
  let dataplane_rows = ref [] in
  let services_rows = ref [] in
  let alpha_rows = ref [] in
  List.iter
    (fun name ->
      if name = "micro" then begin
        let rows, cost = measure micro in
        micro_rows := rows;
        timings := ("micro", cost) :: !timings
      end
      else if name = "shards" then begin
        let rows, cost = measure (fun () -> shard_bench quick) in
        shard_rows := rows;
        timings := ("shards", cost) :: !timings
      end
      else if name = "dataplane" then begin
        let rows, cost = measure (fun () -> dataplane_bench scale quick) in
        dataplane_rows := rows;
        timings := ("dataplane", cost) :: !timings
      end
      else if name = "services" then begin
        let rows, cost = measure (fun () -> services_bench scale quick) in
        services_rows := rows;
        timings := ("services", cost) :: !timings
      end
      else if name = "alpha" then begin
        let rows, cost = measure (fun () -> alpha_bench scale quick) in
        alpha_rows := rows;
        timings := ("alpha", cost) :: !timings
      end
      else begin
        match List.find_opt (fun (n, _, _) -> n = name) targets with
        | Some (_, desc, f) ->
          Printf.printf "--- %s: %s ---\n" name desc;
          let tables, cost = measure (fun () -> f scale) in
          List.iter Table.print tables;
          (match !csv_dir with
           | Some dir ->
             List.iter (fun t -> ignore (Table.save_csv t ~dir)) tables
           | None -> ());
          timings := (name, cost) :: !timings;
          Printf.printf "(%s took %.1fs, %.1fM minor words, %d major GCs)\n\n" name
            cost.seconds
            (float_of_int cost.minor_words /. 1e6)
            cost.gc_majors
        | None -> Printf.printf "unknown target %S (see bench/main.ml)\n" name
      end)
    wanted;
  write_bench_json ~path:"BENCH.json" ~quick ~jobs:(E.Common.jobs ())
    ~seed:scale.E.Common.seed (List.rev !timings) !shard_rows !micro_rows
    !dataplane_rows !services_rows !alpha_rows;
  match !check_alloc_path with
  | None -> ()
  | Some path ->
    if !micro_rows = [] then begin
      Printf.eprintf "--check-alloc needs the micro target in the run\n";
      exit 2
    end;
    let baseline, dp_baseline, sv_baseline, al_baseline = baseline_rows path in
    if baseline = [] then begin
      Printf.eprintf "--check-alloc: no rows parsed from %s (one \"name\": {...\"minor_words_per_run\": N} per line)\n" path;
      exit 2
    end;
    let failures = check_alloc ~baseline !micro_rows in
    (* Dataplane rows are gated only when the target ran: micro-only CI
       invocations with a combined baseline file must stay valid. *)
    let failures =
      if !dataplane_rows = [] then begin
        if dp_baseline <> [] then
          Printf.printf
            "dataplane-gate: skipped (%d baseline row(s), dataplane target not run)\n"
            (List.length dp_baseline);
        failures
      end
      else failures + check_dataplane ~baseline:dp_baseline !dataplane_rows
    in
    let failures =
      if !services_rows = [] then begin
        if sv_baseline <> [] then
          Printf.printf
            "services-gate: skipped (%d baseline row(s), services target not run)\n"
            (List.length sv_baseline);
        failures
      end
      else failures + check_services ~baseline:sv_baseline !services_rows
    in
    let failures =
      if !alpha_rows = [] then begin
        if al_baseline <> [] then
          Printf.printf
            "alpha-gate: skipped (%d baseline row(s), alpha target not run)\n"
            (List.length al_baseline);
        failures
      end
      else failures + check_alpha ~baseline:al_baseline !alpha_rows
    in
    if failures > 0 then begin
      Printf.eprintf "alloc-gate: %d row(s) regressed vs %s\n" failures path;
      exit 1
    end

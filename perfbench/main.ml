(* perfbench: one run of one workload.

   usage: main.exe --workload static|churn|serve --seed N --seconds S
                   --trace 0|1 [--size full|tiny] [--shards K] [--domains D]

   A run repeats the workload from cold state (fresh set-up, then the timed
   phase) until [--seconds] have elapsed, with at least three repetitions,
   and reports medians.  Times and rates are read off {!Calib.clock}, which
   runs at reference machine speed; the raw wall time and the measured
   machine speed are printed beside them.  With [--trace 1] repetitions
   alternate between untraced and traced; the traced ones feed the
   per-layer metrics and the ratio of the two medians of [wall_s] is the
   trace overhead.  The last line of standard output is the JSON result;
   lines before it give each metric's spread over the repetitions.  A
   correctness-digest mismatch against the recorded goldens, or an output
   that an oracle contradicts, exits with code 1; operations that did not
   complete count as failed.  Simulated operations that completed not ok
   (the protocol's unavailability under churn) are outputs, pinned by the
   digest: they are printed as [not_ok] and enter the traced [fail_ratio]. *)

module R = Report

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("joins_per_s", "1/s");
    ("lookups_per_s", "1/s");
    ("lookup_us_p50", "us");
    ("lookup_us_p95", "us");
    ("minor_words_per_op", "words");
  ]

let per_layer =
  [
    ("fail_ratio", "ratio");
    ("trace.overhead_ratio", "ratio");
    ("ledger.residual_ratio", "ratio");
    ("ledger.spans", "count");
    ("ledger.gc_lost_events", "count");
    ("gc.minor_words", "words");
    ("gc.major_words", "words");
    ("gc.major_collections", "count");
    ("layer.runtime.self_s", "s");
  ]
  @ List.map
      (fun l -> (Printf.sprintf "layer.%s.self_s" (Ledger.layer_name l), "s"))
      Ledger.layers
  @ [
      ("topology.generate_s", "s");
      ("proto.create_s", "s");
      ("intra.join.calls", "count");
      ("intra.join.us_p50", "us");
      ("intra.join.msgs", "msgs");
      ("intra.lookup.calls", "count");
      ("intra.lookup.us_p50", "us");
      ("intra.lookup.hops", "hops");
      ("intra.lookup.stretch", "ratio");
      ("intra.repair.s", "s");
      ("intra.repair.msgs", "msgs");
      ("linkstate.spf.calls", "count");
      ("linkstate.spf.us", "us");
      ("inter.join.us_p50", "us");
      ("inter.route.calls", "count");
      ("inter.route.us_p50", "us");
      ("inter.route.as_hops", "hops");
      ("inter.route.cache_hops", "hops");
      ("proto.run_for.s", "s");
      ("proto.churn_call.us", "us");
      ("proto.lookup_sim_ms_p50", "ms");
      ("proto.lookup_sim_ms_p99", "ms");
      ("proto.msgs_per_event", "msgs");
      ("proto.retry_ratio", "ratio");
      ("proto.crashes", "count");
      ("proto.not_ok", "count");
      ("proto.failovers", "count");
      ("proto.rpc_timeouts", "count");
      ("proto.lookup_attempts", "count");
    ]
  @ List.map (fun c -> ("proto.msgs." ^ c, "msgs")) Churn.categories
  @ [
      ("netsim.events", "count");
      ("netsim.windows", "count");
      ("netsim.busy_s", "s");
      ("netsim.stall_s", "s");
      ("netsim.busy_ratio", "ratio");
      ("netsim.peak_pending", "count");
      ("dataplane.alpha.calls", "count");
      ("dataplane.alpha.us_per_lookup", "us");
      ("dataplane.alpha.ring_hops", "hops");
      ("dataplane.alpha.link_hops", "hops");
      ("dataplane.alpha.cancellations", "count");
      ("dataplane.alpha.useful_ratio", "ratio");
      ("services.resolve.calls", "count");
      ("services.resolve.us_per_res", "us");
      ("services.hit_ratio", "ratio");
      ("services.republish.us_per_record", "us");
      ("services.sweep.us", "us");
    ]

let usage () =
  prerr_endline
    "usage: main.exe --workload static|churn|serve --seed N --seconds S --trace 0|1 \
     [--size full|tiny] [--shards K] [--domains D]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let size = ref "full" and shards = ref 2 and domains = ref 1 in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := (v = "1"); parse rest
    | "--size" :: v :: rest -> size := v; parse rest
    | "--shards" :: v :: rest -> shards := int_of_string v; parse rest
    | "--domains" :: v :: rest -> domains := int_of_string v; parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let tiny = match !size with "tiny" -> true | "full" -> false | _ -> usage () in
  let seed = !seed in
  let domains = max 1 !domains in
  let run_rep =
    match !workload with
    | "static" ->
      let sz = if tiny then Static.tiny else Static.full in
      fun ~traced -> Static.run_rep ~seed ~traced sz
    | "churn" ->
      let sz = if tiny then Churn.tiny else Churn.full in
      fun ~traced -> Churn.run_rep ~seed ~traced ~shards:!shards ~domains sz
    | "serve" ->
      let sz = if tiny then Serve.tiny else Serve.full in
      fun ~traced -> Serve.run_rep ~seed ~traced sz
    | _ -> usage ()
  in
  (* repetitions, each from cold state *)
  let min_reps = if !trace then 4 else 3 and max_reps = 500 in
  let start = Ledger.now () in
  let elapsed () = Ledger.secs (Ledger.now () - start) in
  let untraced = ref [] and traced = ref [] in
  let k = ref 0 in
  while !k < min_reps || (elapsed () < !seconds && !k < max_reps) do
    let tr = !trace && !k land 1 = 1 in
    Gc.full_major ();
    Ledger.set_tracing tr;
    let r = run_rep ~traced:tr in
    Ledger.set_tracing false;
    if tr then traced := r :: !traced else untraced := r :: !untraced;
    incr k
  done;
  let all = !untraced @ !traced in
  (* correctness: every repetition agrees, and matches the golden digest *)
  let digest = (List.hd all).R.digest in
  let agree = List.for_all (fun r -> r.R.digest = digest) all in
  let golden = Golden.lookup ~workload:!workload ~size:!size ~seed in
  let golden_ok = match golden with None -> true | Some g -> g = digest in
  let attempted = List.fold_left (fun a r -> a + r.R.attempted) 0 all in
  let failed = List.fold_left (fun a r -> a + r.R.failed) 0 all in
  let wrong = List.fold_left (fun a r -> a + r.R.wrong) 0 all in
  let not_ok = List.fold_left (fun a r -> a + r.R.not_ok) 0 all in
  let failed = if agree && golden_ok then failed else attempted in
  let correct = agree && golden_ok && wrong = 0 in
  Printf.printf "workload %s seed %d size %s cores %d reps %d (traced %d) lookup samples/rep %d\n"
    !workload seed !size (Domain.recommended_domain_count ()) !k (List.length !traced)
    (List.length (List.hd all).R.lookup_us);
  Printf.printf "digest %016x golden %s agree %b failed %d not_ok %d wrong %d\n" digest
    (match golden with None -> "none" | Some g -> Printf.sprintf "%016x" g)
    agree failed not_ok wrong;
  (* medians with their spread over the repetitions *)
  let fold name values =
    let q = List.map (R.quantile values) [ 0.0; 0.25; 0.5; 0.75; 1.0 ] in
    let med = List.nth q 2 in
    Printf.printf "  %-34s median %-14.6g q1 %-12.6g q3 %-12.6g min %-12.6g max %-12.6g\n"
      name med (List.nth q 1) (List.nth q 3) (List.nth q 0) (List.nth q 4);
    med
  in
  let value name r =
    match name with
    | "setup_s" -> r.R.setup_s
    | "wall_s" -> r.R.wall_s
    | _ -> (
      match List.assoc_opt name r.R.e2e with
      | Some v -> v
      | None -> Option.value (List.assoc_opt name r.R.layer) ~default:0.0)
  in
  let metrics =
    if not !trace then begin
      ignore (fold "machine_speed" (List.map (fun r -> r.R.speed) !untraced));
      ignore (fold "wall_s.raw" (List.map (fun r -> r.R.wall_s /. r.R.speed) !untraced));
      (* Printed, not gated: on [static] about 2% of lookups contain a minor
         collection, so p99 follows the GC's copying speed, which the
         neighbours move more than the clock corrects. *)
      ignore (fold "lookup_us_p99" (List.map (fun r -> R.quantile r.R.lookup_us 0.99) !untraced));
      List.map
        (fun (name, unit) ->
          let per_rep =
            match name with
            | "lookup_us_p50" -> List.map (fun r -> R.quantile r.R.lookup_us 0.5) !untraced
            | "lookup_us_p95" -> List.map (fun r -> R.quantile r.R.lookup_us 0.95) !untraced
            | _ -> List.map (value name) !untraced
          in
          (name, fold name per_rep, unit))
        end_to_end
    end
    else begin
      let wall reps = R.median (List.map (value "wall_s") reps) in
      let overhead = wall !traced /. wall !untraced in
      List.map
        (fun (name, unit) ->
          let v =
            if name = "trace.overhead_ratio" then fold name [ overhead ]
            else fold name (List.map (value name) !traced)
          in
          (name, v, unit))
        per_layer
    end
  in
  let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " fields);
  if not correct then exit 1

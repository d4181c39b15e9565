(* Model-based testing of the bounded caches against naive list
   references: Rofl_util.Lru (which backs the resolver cache) against an
   assoc list, and Pointer_cache against an MRU-ordered list plus a sorted
   set, with its recency/sorted-index audit under random workloads.  The
   pointer cache sits on the hot lookup path, so a recency or eviction bug
   there quietly reshapes stretch numbers everywhere — worth a real model,
   not just point tests. *)

module Lru = Rofl_util.Lru
module Prng = Rofl_util.Prng
module Id = Rofl_idspace.Id
module Pointer = Rofl_core.Pointer
module Sourceroute = Rofl_core.Sourceroute
module Pointer_cache = Rofl_core.Pointer_cache
module Metrics = Rofl_netsim.Metrics
module Resolver = Rofl_services.Resolver

(* ---- reference model: assoc list, most-recently-used first ------------- *)

type model = { mutable m_cap : int; mutable entries : (int * int) list }

let m_put m k v =
  if m.m_cap = 0 then Some (k, v)
  else if List.mem_assoc k m.entries then begin
    m.entries <- (k, v) :: List.remove_assoc k m.entries;
    None
  end
  else begin
    let evicted =
      if List.length m.entries >= m.m_cap then begin
        let rec split = function
          | [ last ] -> ([], Some last)
          | x :: rest ->
            let kept, last = split rest in
            (x :: kept, last)
          | [] -> ([], None)
        in
        let kept, last = split m.entries in
        m.entries <- kept;
        last
      end
      else None
    in
    m.entries <- (k, v) :: m.entries;
    evicted
  end

let m_find m k =
  match List.assoc_opt k m.entries with
  | Some v ->
    m.entries <- (k, v) :: List.remove_assoc k m.entries;
    Some v
  | None -> None

let m_resize m cap =
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  m.m_cap <- cap;
  m.entries <- take cap m.entries

(* ---- operations --------------------------------------------------------- *)

type op =
  | Put of int * int
  | Find of int
  | Peek of int
  | Mem of int
  | Remove of int
  | Filter_even
  | Clear
  | Resize of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun k v -> Put (k, v)) (int_bound 7) (int_bound 99));
        (3, map (fun k -> Find k) (int_bound 7));
        (2, map (fun k -> Peek k) (int_bound 7));
        (2, map (fun k -> Mem k) (int_bound 7));
        (2, map (fun k -> Remove k) (int_bound 7));
        (1, return Filter_even);
        (1, return Clear);
        (1, map (fun c -> Resize c) (int_bound 5));
      ])

let op_print = function
  | Put (k, v) -> Printf.sprintf "put %d %d" k v
  | Find k -> Printf.sprintf "find %d" k
  | Peek k -> Printf.sprintf "peek %d" k
  | Mem k -> Printf.sprintf "mem %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Filter_even -> "filter-even"
  | Clear -> "clear"
  | Resize c -> Printf.sprintf "resize %d" c

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_print ops))
    QCheck.Gen.(list_size (int_bound 60) op_gen)

let lru_contents c = List.rev (Lru.fold c ~init:[] ~f:(fun acc k v -> (k, v) :: acc))

(* Apply one op to both; false on any observable disagreement. *)
let step c m op =
  match op with
  | Put (k, v) -> Lru.put c k v = m_put m k v
  | Find k -> Lru.find c k = m_find m k
  | Peek k -> Lru.peek c k = List.assoc_opt k m.entries
  | Mem k -> Lru.mem c k = List.mem_assoc k m.entries
  | Remove k ->
    Lru.remove c k;
    m.entries <- List.remove_assoc k m.entries;
    true
  | Filter_even ->
    Lru.filter_inplace c (fun _ v -> v mod 2 = 0);
    m.entries <- List.filter (fun (_, v) -> v mod 2 = 0) m.entries;
    true
  | Clear ->
    Lru.clear c;
    m.entries <- [];
    true
  | Resize cap ->
    Lru.resize c ~capacity:cap;
    m_resize m cap;
    true

let prop_lru_matches_model =
  QCheck.Test.make ~name:"Lru agrees with the assoc-list model" ~count:500 ops_arb
    (fun ops ->
      let c = Lru.create ~capacity:3 in
      let m = { m_cap = 3; entries = [] } in
      List.for_all
        (fun op ->
          step c m op
          && lru_contents c = m.entries
          && Lru.length c = List.length m.entries)
        ops)

(* ---- Pointer_cache vs an MRU list plus a sorted set ---------------------- *)

(* Twelve identifiers in three key-tie groups: ids sharing the high word
   share [Id.key], so the sorted index's [Id.compare] tie-break is
   exercised on every operation. *)
let pool =
  Array.init 12 (fun i ->
      let hi = [| 0x1000_0000_0000_0000L; 0x7fff_0000_0000_0000L; 0xf000_0000_0000_0000L |] in
      Id.of_int64_pair hi.(i mod 3) (Int64.of_int (i / 3)))

let pool_ptr k router =
  Pointer.make Pointer.Cached ~dst:pool.(k) ~dst_router:router
    ~route:(Sourceroute.singleton router)

type pm = { mutable p_cap : int; mutable mru : Pointer.t list; mutable sorted : Id.t list }

let pm_remove m x =
  m.mru <- List.filter (fun (p : Pointer.t) -> not (Id.equal p.Pointer.dst x)) m.mru;
  m.sorted <- List.filter (fun y -> not (Id.equal y x)) m.sorted

let pm_promote m x =
  match List.find_opt (fun (p : Pointer.t) -> Id.equal p.Pointer.dst x) m.mru with
  | Some p ->
    m.mru <- p :: List.filter (fun (q : Pointer.t) -> q != p) m.mru;
    Some p
  | None -> None

let pm_truncate m =
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  m.mru <- take m.p_cap m.mru;
  m.sorted <-
    List.filter
      (fun x -> List.exists (fun (p : Pointer.t) -> Id.equal p.Pointer.dst x) m.mru)
      m.sorted

let last l = List.nth l (List.length l - 1)

let pm_insert m (p : Pointer.t) =
  if m.p_cap > 0 then begin
    let x = p.Pointer.dst in
    if List.exists (fun y -> Id.equal y x) m.sorted then begin
      pm_remove m x;
      m.mru <- p :: m.mru
    end
    else begin
      if List.length m.mru >= m.p_cap then pm_remove m (last m.mru).Pointer.dst;
      m.mru <- p :: m.mru
    end;
    m.sorted <- List.sort_uniq Id.compare (x :: m.sorted)
  end

(* Exact hit, else the largest member below target (wrapping to the
   maximum), gated by [between_incl cur _ target]. *)
let pm_best_match m ~cur ~target =
  if List.exists (fun y -> Id.equal y target) m.sorted then pm_promote m target
  else
    match m.sorted with
    | [] -> None
    | _ ->
      let below = List.filter (fun y -> Id.compare y target < 0) m.sorted in
      let pred = last (if below = [] then m.sorted else below) in
      if Id.between_incl cur pred target then pm_promote m pred else None

type pop =
  | P_insert of int * int
  | P_find of int
  | P_mem of int
  | P_best of int * int
  | P_remove of int
  | P_drop_odd
  | P_resize of int
  | P_clear
  | P_iter

let pop_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun k r -> P_insert (k, r)) (int_bound 11) (int_bound 3));
        (2, map (fun k -> P_find k) (int_bound 11));
        (1, map (fun k -> P_mem k) (int_bound 11));
        (4, map2 (fun a b -> P_best (a, b)) (int_bound 11) (int_bound 11));
        (2, map (fun k -> P_remove k) (int_bound 11));
        (1, return P_drop_odd);
        (1, map (fun c -> P_resize c) (int_bound 8));
        (1, return P_clear);
        (1, return P_iter);
      ])

let pop_print = function
  | P_insert (k, r) -> Printf.sprintf "insert %d@%d" k r
  | P_find k -> Printf.sprintf "find %d" k
  | P_mem k -> Printf.sprintf "mem %d" k
  | P_best (a, b) -> Printf.sprintf "best %d->%d" a b
  | P_remove k -> Printf.sprintf "remove %d" k
  | P_drop_odd -> "drop-odd"
  | P_resize c -> Printf.sprintf "resize %d" c
  | P_clear -> "clear"
  | P_iter -> "iter"

let pops_arb =
  QCheck.make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "cap %d: %s" cap (String.concat "; " (List.map pop_print ops)))
    QCheck.Gen.(pair (int_bound 8) (list_size (int_bound 80) pop_gen))

let as_option c cursor =
  if Pointer_cache.Cursor.is_none cursor then None
  else Some (Pointer_cache.Cursor.value_at c cursor)

let same_ptr a b =
  match (a, b) with
  | Some (p : Pointer.t), Some q -> p == q
  | None, None -> true
  | _ -> false

let cache_mru c =
  let acc = ref [] in
  Pointer_cache.iter c (fun p -> acc := p :: !acc);
  List.rev !acc

(* Ring order read back through the cursors: from the maximum ([lt] of
   zero wraps there) stepping [prev] down to the minimum. *)
let cache_sorted c =
  let n = Pointer_cache.length c in
  let rec go acc cur k =
    if k = 0 then acc
    else go (Pointer_cache.Cursor.id_at c cur :: acc) (Pointer_cache.Cursor.prev c cur) (k - 1)
  in
  if n = 0 then [] else go [] (Pointer_cache.Cursor.lt c Id.zero) n

let pstep c m = function
  | P_insert (k, r) ->
    let p = pool_ptr k r in
    Pointer_cache.insert c p;
    pm_insert m p;
    true
  | P_find k -> same_ptr (as_option c (Pointer_cache.find c pool.(k))) (pm_promote m pool.(k))
  | P_mem k ->
    Pointer_cache.mem c pool.(k) = List.exists (fun y -> Id.equal y pool.(k)) m.sorted
  | P_best (a, b) ->
    same_ptr
      (as_option c (Pointer_cache.best_match c ~cur:pool.(a) ~target:pool.(b)))
      (pm_best_match m ~cur:pool.(a) ~target:pool.(b))
  | P_remove k ->
    Pointer_cache.remove c pool.(k);
    pm_remove m pool.(k);
    true
  | P_drop_odd ->
    let odd (p : Pointer.t) = p.Pointer.dst_router mod 2 = 1 in
    let dropped = Pointer_cache.drop_if c odd in
    let victims = List.filter odd m.mru in
    List.iter (fun (p : Pointer.t) -> pm_remove m p.Pointer.dst) victims;
    dropped = List.length victims
  | P_resize cap ->
    Pointer_cache.resize c ~capacity:cap;
    m.p_cap <- cap;
    pm_truncate m;
    Pointer_cache.capacity c = cap
  | P_clear ->
    Pointer_cache.clear c;
    m.mru <- [];
    m.sorted <- [];
    true
  | P_iter -> List.length (cache_mru c) = List.length m.mru

let prop_pointer_cache_matches_model =
  QCheck.Test.make ~name:"Pointer_cache agrees with the MRU-list + sorted-set model"
    ~count:500 pops_arb (fun (cap, ops) ->
      let c = Pointer_cache.create ~capacity:cap in
      let m = { p_cap = cap; mru = []; sorted = [] } in
      List.for_all
        (fun op ->
          pstep c m op
          && List.length (cache_mru c) = List.length m.mru
          && List.for_all2 ( == ) (cache_mru c) m.mru
          && List.equal Id.equal (cache_sorted c) m.sorted
          && Pointer_cache.length c = List.length m.mru
          && Pointer_cache.audit c = [])
        ops)

(* ---- Pointer_cache: recency list and sorted index stay in agreement ------ *)

let ptr rng =
  let router = Prng.int rng 32 in
  Pointer.make Pointer.Cached ~dst:(Id.random rng) ~dst_router:router
    ~route:(Sourceroute.singleton router)

let prop_pointer_cache_agreement =
  QCheck.Test.make ~name:"Pointer_cache audit stays clean under churned workloads"
    ~count:60
    QCheck.(make ~print:string_of_int Gen.(int_bound 10_000))
    (fun seed ->
      let rng = Prng.create seed in
      let cache = Pointer_cache.create ~capacity:8 in
      let inserted = ref [] in
      for _ = 1 to 200 do
        match Prng.int rng 6 with
        | 0 | 1 | 2 ->
          let p = ptr rng in
          inserted := p.Pointer.dst :: !inserted;
          Pointer_cache.insert cache p
        | 3 ->
          (match !inserted with
           | [] -> ()
           | ids -> ignore (Pointer_cache.find cache (List.nth ids (Prng.int rng (List.length ids)))))
        | 4 ->
          (match !inserted with
           | [] -> ()
           | ids -> Pointer_cache.remove cache (List.nth ids (Prng.int rng (List.length ids))))
        | _ ->
          ignore
            (Pointer_cache.best_match cache ~cur:(Id.random rng) ~target:(Id.random rng))
      done;
      Pointer_cache.audit cache = []
      && (Pointer_cache.resize cache ~capacity:3;
          Pointer_cache.audit cache = []))

(* ---- Resolver cache: LRU + TTL + negative entries vs a model ------------ *)

(* The resolver cache layers TTL decay and negative entries on the LRU; the
   model is an assoc list (MRU first) of (key, (positive?, fresh_until)).
   Time only moves forward, one step per op, so every entry decays on a
   schedule the model can replay exactly.  serve_stale is off here: a
   decayed entry must read as a miss and be dropped on sight. *)

type rop = Install of int * bool | Consult of int

let rop_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun k pos -> Install (k, pos)) (int_bound 7) bool);
        (5, map (fun k -> Consult k) (int_bound 7));
      ])

let rop_print = function
  | Install (k, pos) -> Printf.sprintf "install %d %s" k (if pos then "pos" else "neg")
  | Consult k -> Printf.sprintf "find %d" k

let rops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map rop_print ops))
    QCheck.Gen.(list_size (int_bound 80) rop_gen)

let resolver_cfg =
  {
    Resolver.default_config with
    Resolver.capacity = 3;
    cache_ttl_ms = 1_000.0;
    neg_ttl_ms = 500.0;
  }

let prop_resolver_matches_model =
  QCheck.Test.make ~name:"Resolver cache agrees with the TTL'd LRU model" ~count:500
    rops_arb (fun ops ->
      let metrics = Metrics.create ~routers:1 in
      let r = Resolver.create ~metrics ~router:0 resolver_cfg in
      let keys = Array.init 8 (fun k -> Id.random (Prng.create (k + 1))) in
      (* model: assoc list MRU-first of (key index, (positive, fresh_until)) *)
      let m = ref [] in
      let m_install k pos now =
        let ttl = if pos then resolver_cfg.Resolver.cache_ttl_ms else resolver_cfg.Resolver.neg_ttl_ms in
        m := (k, (pos, now +. ttl)) :: List.remove_assoc k !m;
        let rec take n = function
          | x :: rest when n > 0 -> x :: take (n - 1) rest
          | _ -> []
        in
        m := take resolver_cfg.Resolver.capacity !m
      in
      let m_find k now =
        match List.assoc_opt k !m with
        | None -> None
        | Some (pos, fresh_until) ->
          if now < fresh_until then begin
            m := (k, (pos, fresh_until)) :: List.remove_assoc k !m;
            Some pos
          end
          else begin
            (* decayed: dropped on sight, reads as a miss *)
            m := List.remove_assoc k !m;
            None
          end
      in
      List.for_all
        (fun (i, op) ->
          let now = float_of_int i *. 300.0 in
          match op with
          | Install (k, pos) ->
            Resolver.install r ~now keys.(k) (if pos then [| keys.(k) |] else [||]);
            m_install k pos now;
            Resolver.length r = List.length !m
          | Consult k ->
            let got =
              match Resolver.find r ~now keys.(k) with
              | None -> None
              | Some e -> Some (e.Resolver.providers <> [||])
            in
            got = m_find k now && Resolver.length r = List.length !m)
        (List.mapi (fun i op -> (i, op)) ops)
      && Resolver.served_expired r = 0)

let () =
  Alcotest.run "rofl_lru_model"
    [
      ( "model",
        [
          QCheck_alcotest.to_alcotest prop_lru_matches_model;
          QCheck_alcotest.to_alcotest prop_pointer_cache_matches_model;
          QCheck_alcotest.to_alcotest prop_pointer_cache_agreement;
          QCheck_alcotest.to_alcotest prop_resolver_matches_model;
        ] );
    ]

module Id = Rofl_idspace.Id

(* Keep-first on ties: a later candidate replaces the incumbent only when
   strictly closer to the target, so enumeration order encodes precedence.
   Ranking compares identifiers with the allocation-free
   [Id.closer_clockwise] instead of materialising distances. *)
let best ~target ~id_of cands =
  List.fold_left
    (fun acc c ->
      match acc with
      | Some b when not (Id.closer_clockwise ~target (id_of c) (id_of b)) -> acc
      | Some _ | None -> Some c)
    None cands

(** Subset construction: NFA → deterministic automaton with dense 256-way
    transition rows, plus the longest-match scan used by the context-aware
    scanner.

    The scanner keeps one DFA per terminal; at scan time it runs only the
    DFAs of terminals that are *valid* in the current LR parse state. *)

type t = {
  trans : int array array;  (** [trans.(state).(char)] = next state or -1 *)
  accepting : bool array;
  start : int;
}

let reject = -1

(** [of_nfa nfa] determinizes [nfa]. *)
let of_nfa (nfa : Nfa.t) : t =
  let module M = Map.Make (struct
    type t = int list

    let compare = compare
  end) in
  let state_ids = ref M.empty in
  let rows = ref [] (* (id, int array) in reverse id order *) in
  let accepting = ref [] in
  let next_id = ref 0 in
  let rec intern set =
    match M.find_opt set !state_ids with
    | Some id -> id
    | None ->
        let id = !next_id in
        incr next_id;
        state_ids := M.add set id !state_ids;
        let row = Array.make 256 reject in
        rows := (id, row) :: !rows;
        accepting := (id, List.mem nfa.Nfa.accept set) :: !accepting;
        (* Fill transitions for every input character: [Nfa.step] over
           the set's labelled edges, gathered once per row.  Characters
           with no step stay [reject]; each distinct step set is closed
           and interned once per row, in first-character order. *)
        let edges = List.concat_map (fun s -> nfa.Nfa.labelled.(s)) set in
        let targets = Hashtbl.create 8 in
        if edges <> [] then
          for c = 0 to 255 do
            let ch = Char.chr c in
            match
              List.filter_map
                (fun (atom, d) ->
                  if Syntax.atom_matches atom ch then Some d else None)
                edges
              |> List.sort_uniq Int.compare
            with
            | [] -> ()
            | step ->
                row.(c) <-
                  (match Hashtbl.find_opt targets step with
                  | Some tgt -> tgt
                  | None ->
                      let tgt = intern (Nfa.eps_closure nfa step) in
                      Hashtbl.add targets step tgt;
                      tgt)
          done;
        id
    in
  let start = intern (Nfa.eps_closure nfa [ nfa.Nfa.start ]) in
  let n = !next_id in
  let trans = Array.make n [||] in
  List.iter (fun (id, row) -> trans.(id) <- row) !rows;
  let acc = Array.make n false in
  List.iter (fun (id, a) -> acc.(id) <- a) !accepting;
  { trans; accepting = acc; start }

(** [of_regex r] compiles straight from regex syntax. *)
let of_regex r = of_nfa (Nfa.of_regex r)

(** [matches dfa s] — does [dfa] accept the whole string [s]? *)
let matches dfa s =
  let rec go state i =
    if state = reject then false
    else if i = String.length s then dfa.accepting.(state)
    else go dfa.trans.(state).(Char.code s.[i]) (i + 1)
  in
  go dfa.start 0

(** [longest_match dfa s pos] — length of the longest prefix of
    [s[pos..]] accepted by [dfa], or [None] if no prefix (not even a
    1-character one) is accepted.  Zero-length matches are deliberately
    not reported: a terminal that matches the empty string would make the
    scanner loop. *)
let longest_match dfa s pos =
  let n = String.length s in
  let best = ref None in
  let state = ref dfa.start in
  let i = ref pos in
  (try
     while !state <> reject && !i <= n do
       if dfa.accepting.(!state) && !i > pos then best := Some (!i - pos);
       if !i = n then raise Exit;
       state := dfa.trans.(!state).(Char.code s.[!i]);
       incr i
     done
   with Exit -> ());
  !best

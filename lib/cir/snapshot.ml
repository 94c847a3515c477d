(** Pass-by-pass IR snapshots ([--dump-ir]) and snapshot diffs
    ([--ir-diff]).

    A {!sink} is a per-pipeline-run recorder owned by the driver's pass
    manager: the manager records an ["ir after <pass> (program)"] snapshot
    after each selected pass actually runs over the single lowered
    program, and passes with finer-grained output (the transform pass's
    per-clause dumps) record into the same sink themselves.  There is no
    global state and no re-lowering — one pipeline run produces every
    requested snapshot.

    Rendering is full pretty-print per snapshot, or a unified line diff
    between consecutive snapshots of the same subject when [--ir-diff] is
    on (falling back to a plain before/after dump above
    {!max_diff_lines}, since the LCS diff is O(n·m) in lines).

    Snapshot names are ["lower"] (the baseline, no optimizations) and
    the registered pass names, listed by [Driver.snapshot_stages]; the
    transform pass records one snapshot per applied clause. *)

type entry = {
  pass : string;
  label : string;
      (** diff subject: ["program"] for whole-program stage dumps, the
          source location of the transformed statement for per-clause
          transform snapshots *)
  note : string;
      (** extra header detail (the transform clause just applied); [""]
          when there is nothing to say *)
  text : string;  (** pretty-printed CIR *)
}

type sink = {
  passes : string list;  (** which passes to capture *)
  diff : bool;  (** render consecutive same-label snapshots as diffs *)
  mutable entries : entry list;  (** newest first *)
}

(** [create ~passes ~diff ()] — a fresh sink capturing the given passes. *)
let create ~passes ~diff () = { passes; diff; entries = [] }

let wants sink pass = List.mem pass sink.passes

let record sink ~pass ~label ?(note = "") text =
  if wants sink pass then
    sink.entries <- { pass; label; note; text } :: sink.entries

let results sink = List.rev sink.entries

(* --- unified line diff -------------------------------------------------- *)

type op = Keep of string | Del of string | Add of string

(** Snapshots larger than this many lines skip the O(n·m) LCS diff and
    render as a plain before/after dump with a visible note. *)
let max_diff_lines = 4000

(** Longest-common-subsequence edit script over lines (classic O(n·m)
    DP — fine for the few hundred lines of a typical snapshot; guarded by
    {!max_diff_lines} above). *)
let diff_lines (a : string array) (b : string array) : op list =
  let n = Array.length a and m = Array.length b in
  let lcs = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = n - 1 downto 0 do
    for j = m - 1 downto 0 do
      lcs.(i).(j) <-
        (if String.equal a.(i) b.(j) then 1 + lcs.(i + 1).(j + 1)
         else max lcs.(i + 1).(j) lcs.(i).(j + 1))
    done
  done;
  let rec walk i j acc =
    if i < n && j < m && String.equal a.(i) b.(j) then
      walk (i + 1) (j + 1) (Keep a.(i) :: acc)
    else if j < m && (i = n || lcs.(i).(j + 1) >= lcs.(i + 1).(j)) then
      walk i (j + 1) (Add b.(j) :: acc)
    else if i < n then walk (i + 1) j (Del a.(i) :: acc)
    else List.rev acc
  in
  walk 0 0 []

(** [pp_unified ppf ~from_ ~to_ a b] — minimal unified-diff rendering
    (headers plus [+]/[-]/[ ] lines; no hunk ranges — the consumers are
    humans and golden tests, not [patch]). *)
let pp_unified ppf ~from_ ~to_ (a : string) (b : string) =
  let lines s = Array.of_list (String.split_on_char '\n' s) in
  let la = lines a and lb = lines b in
  if Array.length la > max_diff_lines || Array.length lb > max_diff_lines
  then begin
    (* The O(n·m) diff would stall on snapshots this size: dump in full. *)
    Fmt.pf ppf "--- %s@.+++ %s@." from_ to_;
    Fmt.pf ppf
      "(diff skipped: snapshot exceeds %d lines; showing both versions in \
       full)@."
      max_diff_lines;
    Fmt.pf ppf "<<< %s@.%s@." from_ a;
    Fmt.pf ppf ">>> %s@.%s@." to_ b
  end
  else
    let ops = diff_lines la lb in
    if List.for_all (function Keep _ -> true | _ -> false) ops then
      Fmt.pf ppf "--- %s@.+++ %s@.(no change)@." from_ to_
    else begin
      Fmt.pf ppf "--- %s@.+++ %s@." from_ to_;
      (* trim runs of unchanged lines to 2 lines of context on each side *)
      let ctx = 2 in
      let arr = Array.of_list ops in
      let n = Array.length arr in
      let is_keep i = match arr.(i) with Keep _ -> true | _ -> false in
      let near_change i =
        let lo = max 0 (i - ctx) and hi = min (n - 1) (i + ctx) in
        let rec any j = j <= hi && ((not (is_keep j)) || any (j + 1)) in
        any lo
      in
      let skipping = ref false in
      Array.iteri
        (fun i op ->
          match op with
          | Keep l ->
              if near_change i then begin
                skipping := false;
                Fmt.pf ppf " %s@." l
              end
              else if not !skipping then begin
                skipping := true;
                Fmt.pf ppf "   ...@."
              end
          | Del l ->
              skipping := false;
              Fmt.pf ppf "-%s@." l
          | Add l ->
              skipping := false;
              Fmt.pf ppf "+%s@." l)
        arr
    end

(* --- rendering ---------------------------------------------------------- *)

(** [pp ppf sink] — every recorded snapshot in recording order.  In diff
    mode, each snapshot after the first {e of the same label} renders as a
    unified diff against its predecessor; the first of each label (and
    everything in plain mode) prints in full. *)
let pp ppf sink =
  let prev : (string, string * string) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun s ->
      (if s.note = "" then Fmt.pf ppf "=== ir after %s (%s) ===@." s.pass s.label
       else Fmt.pf ppf "=== ir after %s (%s) [%s] ===@." s.pass s.label s.note);
      (match (sink.diff, Hashtbl.find_opt prev s.label) with
      | true, Some (ppass, ptext) ->
          pp_unified ppf ~from_:ppass ~to_:s.pass ptext s.text
      | _ -> Fmt.pf ppf "%s@." s.text);
      Hashtbl.replace prev s.label (s.pass, s.text))
    (results sink)

let to_string sink = Fmt.str "%a" pp sink

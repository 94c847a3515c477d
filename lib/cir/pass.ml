(** First-class CIR passes.

    A pass is a named program→program rewrite registered with the driver's
    pipeline ([Driver.Pipeline]); the manager runs the sequence uniformly —
    timing each pass ([pass.<name>.ns] gauges), scoping its optimization
    remarks, and capturing IR snapshots after it actually ran.

    Passes communicate with the baseline lowering through {!Ir.Site}
    annotations: the lowering emits the {e unoptimized} statements for
    every optimization decision wrapped in a site carrying the facts the
    decision needs (which temporary is the fusable copy, whether an
    identity slice proved alias-safe, what kind of loop nest could be
    promoted), and the owning pass consumes the site — rewriting or
    splicing the payload and emitting the Applied/Missed/Skipped remark.
    A pass runs even when disabled, because splicing its sites away and
    reporting the skip is also its job. *)

open Ir

exception Error of string * Support.Pos.span
(** A pass failed with a programmer-facing message (e.g. a transform
    script whose indices bind to no loop).  The pipeline converts this to
    a "lower"-phase diagnostic, same as a lowering error. *)

let err span fmt = Format.kasprintf (fun m -> raise (Error (m, span))) fmt

type ctx = {
  rc : bool;  (** reference counting enabled (refptr extension composed) *)
  warn : Support.Diag.t -> unit;  (** sink for non-fatal diagnostics *)
  sink : Snapshot.sink option;
      (** where [--dump-ir] snapshots go; [None] when nobody asked *)
  mutable auto_par_ran : bool;
      (** did an enabled auto-par pass already run?  The transform pass
          uses this to tell "script broken by ParFor promotion" (warn and
          skip) from "script indices name no loop" (hard error). *)
}

type t = {
  name : string;  (** pipeline/CLI/remark name, e.g. ["copy-elim"] *)
  default_on : bool;  (** enabled when the user says nothing *)
  managed_snapshot : bool;
      (** the manager records an ["ir after <name> (program)"] snapshot
          after the pass runs; passes with their own finer-grained
          snapshots (transform's per-clause dumps) opt out *)
  run : ctx -> enabled:bool -> program -> program;
}

(* --- site traversal helper ------------------------------------------------ *)

(** [rewrite_sites f p] — post-order rewrite: [f site payload] sees each
    site after everything nested inside its payload has been rewritten
    (so remark order matches the old emit-during-lowering order: inner
    constructs first), and returns [Some stmts] to replace the site or
    [None] to keep a site it does not own. *)
let rewrite_sites (f : site -> stmt list -> stmt list option) (p : program) :
    program =
  let rec stmt s =
    match s with
    | Site (site, b) -> (
        let b = block b in
        match f site b with Some ss -> ss | None -> [ Site (site, b) ])
    | If (c, a, b) -> [ If (c, block a, block b) ]
    | While (c, b) -> [ While (c, block b) ]
    | For l -> [ For { l with body = block l.body } ]
    | ParFor l -> [ ParFor { l with body = block l.body } ]
    | Block b -> [ Block (block b) ]
    | Located (sp, b) -> [ Located (sp, block b) ]
    | s -> [ s ]
  and block b = List.concat_map stmt b in
  {
    p with
    funcs = List.map (fun fn -> { fn with f_body = block fn.f_body }) p.funcs;
  }

(** [subst_in_program name e p] — replace [Var name] in every function
    body (gensym names are program-unique, so global substitution is
    safe). *)
let subst_in_program name e (p : program) : program =
  {
    p with
    funcs =
      List.map (fun fn -> { fn with f_body = subst_var name e fn.f_body }) p.funcs;
  }

(* --- the rc reporting pass ------------------------------------------------ *)

(* RC ops present in the final program (the §III-B/C bookkeeping cost the
   generated code actually pays). *)
let c_rc_incs = Support.Telemetry.counter "lower.rc_incs"
let c_rc_decs = Support.Telemetry.counter "lower.rc_decs"

let count_rc stmts =
  let incs = ref 0 and decs = ref 0 in
  ignore
    (map_stmts Fun.id
       (fun s ->
         (match s with
         | RcInc _ -> incr incs
         | RcDec _ -> incr decs
         | _ -> ());
         s)
       stmts);
  (!incs, !decs)

(** Always appended after the user-orderable stages: tallies the
    retain/release operations left in the final program — per user
    function, attributing synthesised functions' traffic to their
    [f_origin] — into the [lower.rc_incs]/[lower.rc_decs] counters and
    the per-function ["rc"] remarks. *)
let rc_report : t =
  {
    name = "rc";
    default_on = true;
    managed_snapshot = false;
    run =
      (fun ctx ~enabled:_ p ->
        let tally = Hashtbl.create 8 in
        List.iter
          (fun fn ->
            let owner = Option.value fn.f_origin ~default:fn.f_name in
            let i, d = count_rc fn.f_body in
            let pi, pd =
              Option.value (Hashtbl.find_opt tally owner) ~default:(0, 0)
            in
            Hashtbl.replace tally owner (pi + i, pd + d))
          p.funcs;
        List.iter
          (fun fn ->
            match (fn.f_origin, fn.f_span) with
            | Some _, _ | _, None -> ()
            | None, Some span ->
                let incs, decs =
                  Option.value (Hashtbl.find_opt tally fn.f_name) ~default:(0, 0)
                in
                Support.Telemetry.add c_rc_incs incs;
                Support.Telemetry.add c_rc_decs decs;
                if Support.Remark.on () then begin
                  let details =
                    [
                      ("function", fn.f_name);
                      ("incs", string_of_int incs);
                      ("decs", string_of_int decs);
                    ]
                  in
                  if not ctx.rc then
                    Support.Remark.emit ~pass:"rc" ~kind:Support.Remark.Skipped
                      ~span ~details
                      "reference counting disabled (refptr extension not \
                       composed): '%s' manages no matrix ownership"
                      fn.f_name
                  else if incs + decs = 0 then
                    Support.Remark.emit ~pass:"rc" ~kind:Support.Remark.Missed
                      ~span ~details
                      "no reference-count operations needed in '%s'" fn.f_name
                  else
                    Support.Remark.emit ~pass:"rc" ~kind:Support.Remark.Applied
                      ~span ~details
                      "inserted %d retain and %d release operations in '%s'"
                      incs decs fn.f_name
                end)
          p.funcs;
        p);
  }

(** The staged CIR pass pipeline.

    A {!config} is an ordered list of (pass, enabled) stages.  The manager
    ({!run}) executes every stage over the single lowered program —
    enabled or not, because splicing a pass's {!Cir.Ir.Site} annotations
    away and reporting the skipped decision is part of the pass — and
    uniformly handles the cross-cutting concerns the passes themselves
    should not: per-pass timing ([pass.<name>.ns] gauges) and ["ir after
    <pass>"] snapshot capture into the run's {!Cir.Snapshot.sink}.

    The reference-count reporting pass ({!Cir.Pass.rc_report}) is always
    appended after the user-orderable stages: it tallies what the final
    program actually contains, so it cannot be reordered ahead of the
    passes that decide that. *)

module Tel = Support.Telemetry

type config = { stages : (Cir.Pass.t * bool) list }

(** [default passes] — the given passes in registration order, each at
    its own [default_on]. *)
let default (passes : Cir.Pass.t list) : config =
  { stages = List.map (fun p -> (p, p.Cir.Pass.default_on)) passes }

(** User-orderable pass names, in registration order. *)
let known (cfg : config) =
  List.map (fun (p, _) -> p.Cir.Pass.name) cfg.stages

(** [enable cfg name on] — flip one stage (identity on unknown names;
    validate with {!known} first). *)
let enable (cfg : config) name on =
  {
    stages =
      List.map
        (fun (p, e) -> if p.Cir.Pass.name = name then (p, on) else (p, e))
        cfg.stages;
  }

(** [set_all cfg on] — [-O1] ([on]) / [-O0] ([not on]): every stage
    enabled or disabled. *)
let set_all (cfg : config) on =
  { stages = List.map (fun (p, _) -> (p, on)) cfg.stages }

(** [of_spec cfg names] — the [--passes a,b,…] meaning: run {e only} the
    named passes, in the given order (every other registered pass runs
    disabled, after them, in registration order).  [Error unknown] when a
    name matches no registered pass. *)
let of_spec (cfg : config) (names : string list) : (config, string) result =
  let find n =
    List.find_opt (fun (p, _) -> p.Cir.Pass.name = n) cfg.stages
  in
  match List.find_opt (fun n -> find n = None) names with
  | Some bad -> Error bad
  | None ->
      let enabled =
        List.filter_map (fun n -> Option.map (fun (p, _) -> (p, true)) (find n)) names
      in
      let rest =
        List.filter_map
          (fun (p, _) ->
            if List.mem p.Cir.Pass.name names then None else Some (p, false))
          cfg.stages
      in
      Ok { stages = enabled @ rest }

(** Canonical rendering of a config — stage names in run order, disabled
    stages prefixed with [~].  Folded into the native binary-cache key so
    differently-configured pipelines never share a cached binary. *)
let canon (cfg : config) : string =
  String.concat ","
    (List.map
       (fun (p, e) -> (if e then "" else "~") ^ p.Cir.Pass.name)
       cfg.stages)

(** [run cfg ~rc ?warn ?sink prog] — the pass manager.  Raises
    {!Cir.Pass.Error} when a pass fails (e.g. a transform script whose
    indices name no loop). *)
let run (cfg : config) ~(rc : bool) ?(warn = fun _ -> ())
    ?(sink : Cir.Snapshot.sink option) (prog : Cir.Ir.program) :
    Cir.Ir.program =
  let ctx = { Cir.Pass.rc; warn; sink; auto_par_ran = false } in
  let snap pass prog =
    match sink with
    | Some s when Cir.Snapshot.wants s pass ->
        Cir.Snapshot.record s ~pass ~label:"program" (Cir.Emit.program prog)
    | _ -> ()
  in
  snap "lower" prog;
  List.fold_left
    (fun prog (p, enabled) ->
      let name = p.Cir.Pass.name in
      let t0 = Tel.now_ns () in
      let prog =
        Tel.with_span ~phase:"lower" ("pass." ^ name) (fun () ->
            p.Cir.Pass.run ctx ~enabled prog)
      in
      Tel.set_gauge ("pass." ^ name ^ ".ns")
        (float_of_int (Tel.now_ns () - t0));
      if p.Cir.Pass.managed_snapshot then snap name prog;
      prog)
    prog
    (cfg.stages @ [ (Cir.Pass.rc_report, true) ])

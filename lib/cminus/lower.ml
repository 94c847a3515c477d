(** Translation of the (typechecked) extended AST down to the plain-C IR
    (§II: the extended translator "translate[s] it down to plain C code").

    Extensions contribute lowering hooks exactly as they contribute
    checking hooks; the host lowers its own constructs and the host-
    packaged tuples.

    Reference counting (§III-B, and the memory management of §III-C) is
    inserted here when [rc] is enabled (the refptr extension's
    contribution): matrix handles are {e owned} by the variables they are
    bound to; assignments release the old referent and retain aliases;
    scope exits, [return], [break] and [continue] release what goes out of
    scope; statement-level temporaries (e.g. a discarded function result
    or an intermediate slice) are released at the end of their statement.
    The interpreter's live-allocation registry turns these conventions
    into a machine-checked no-leak/no-double-free invariant. *)

open Cir.Ir
module S = Runtime.Scalar

exception Lower_error of string * Ast.span

let err span fmt =
  Format.kasprintf (fun m -> raise (Lower_error (m, span))) fmt

type scope = {
  mutable owned : string list;  (** matrix vars owned by this scope *)
  mutable names : (string * string) list;
      (** source name -> lowered name of each declaration in this scope *)
  is_loop : bool;  (** break/continue release down to the loop scope *)
}

type t = {
  gensym : Support.Gensym.t;
  funcs : (string, Types.ty list * Types.ty) Hashtbl.t;
  hooks : hooks list;
  rc : bool;
  mutable scopes : scope list;
  mutable params : string list;  (** borrowed matrix parameters *)
  mutable pending : string list;
      (** owned statement-level temporaries awaiting release *)
  mutable extra_funcs : func list;
      (** functions synthesised by lowerings — e.g. matrixMap bodies are
          "lifted out into a new function so that the spawned threads can
          get direct access" (§III-A5) *)
  mutable cur_body : Ast.stmt list;
      (** the (checked) body of the function currently being lowered —
          whole-function context for extension lowerings whose validity
          depends on later statements (e.g. the matrix extension's
          alias-safety analysis for slice-copy elimination) *)
  mutable cur_fname : string;
      (** name of the function currently being lowered — synthesised
          helpers record it as their [f_origin] so per-function reporting
          can attribute their cost to the user function *)
  warn : Support.Diag.t -> unit;
      (** sink for non-fatal lowering diagnostics (e.g. a transform script
          skipped because auto-parallelization changed the loop nest) *)
}

(** One extension's lowering contribution; [None] declines. *)
and hooks = {
  l_name : string;
  l_ty : t -> Ast.ext_ty -> Types.ty option;
  l_expr :
    t -> Ast.ext_expr -> Types.ty -> Ast.span -> (stmt list * expr) option;
  l_stmt : t -> Ast.ext_stmt -> Ast.span -> stmt list option;
  l_binop :
    t -> Ast.binop -> Ast.expr -> Ast.expr -> Types.ty -> Ast.span ->
    (stmt list * expr) option;
  l_unop : t -> Ast.unop -> Ast.expr -> Types.ty -> Ast.span -> (stmt list * expr) option;
  l_call :
    t -> string -> Ast.expr list -> Types.ty -> Ast.span ->
    expected:Types.ty option -> (stmt list * expr) option;
  l_subscript :
    t -> Ast.expr -> Ast.index list -> Types.ty -> Ast.span ->
    (stmt list * expr) option;
  l_subscript_assign :
    t -> Ast.expr -> Ast.index list -> Ast.expr -> Ast.span -> stmt list option;
}

let no_hooks name =
  {
    l_name = name;
    l_ty = (fun _ _ -> None);
    l_expr = (fun _ _ _ _ -> None);
    l_stmt = (fun _ _ _ -> None);
    l_binop = (fun _ _ _ _ _ _ -> None);
    l_unop = (fun _ _ _ _ _ -> None);
    l_call = (fun _ _ _ _ _ ~expected:_ -> None);
    l_subscript = (fun _ _ _ _ _ -> None);
    l_subscript_assign = (fun _ _ _ _ _ -> None);
  }

let first_hook f t = List.find_map (fun h -> f h) t.hooks
let fresh t hint = Support.Gensym.fresh t.gensym hint

let ety (e : Ast.expr) : Types.ty =
  match e.Ast.ety with
  | Some ty -> ty
  | None ->
      err e.Ast.espan "internal: expression reached lowering without a type"

let is_mat = function Types.TMat _ -> true | _ -> false

(* --- ownership helpers ------------------------------------------------------ *)

let push_scope ?(is_loop = false) t =
  t.scopes <- { owned = []; names = []; is_loop } :: t.scopes

let own t name = (List.hd t.scopes).owned <- name :: (List.hd t.scopes).owned

(** [resolve t v] — the lowered name of the innermost visible declaration
    of source variable [v]. *)
let resolve t v =
  Option.value ~default:v
    (List.find_map (fun sc -> List.assoc_opt v sc.names) t.scopes)

(* [declare t name ~mat] binds a declaration of [name] in the innermost
   scope and returns its lowered name.  Releases name what they release,
   so a matrix declaration that shadows a visible matrix (an owned local
   or a borrowed parameter) gets a fresh name: otherwise a [return] or
   [break] inside the inner block would release the inner handle twice
   and the outer one never. *)
let declare t name ~mat =
  let visible = resolve t name in
  let lowered =
    if
      mat
      && (List.mem visible t.params
         || List.exists (fun sc -> List.mem visible sc.owned) t.scopes)
    then fresh t name
    else name
  in
  let sc = List.hd t.scopes in
  sc.names <- (name, lowered) :: sc.names;
  lowered

(** Remember a statement-level owned temporary (also used by extension
    lowerings for intermediate slices etc.). *)
let add_pending t name = t.pending <- name :: t.pending

(** Consume ownership of [e] if it is a pending temp: returns true when the
    callee now owns the value without an extra retain. *)
let consume_pending t (e : expr) =
  match e with
  | Var v when List.mem v t.pending ->
      t.pending <- List.filter (fun x -> x <> v) t.pending;
      true
  | _ -> false

(* RC traffic accounting (the lower.rc_incs / lower.rc_decs telemetry
   counters and the per-function "rc" remarks) lives in the pipeline's rc
   reporting pass, which counts the operations present in the FINAL
   program — the baseline lowering emits RC ops inside decision sites
   that later passes may delete. *)
let rc_dec t e = if t.rc then [ RcDec e ] else []
let rc_inc t e = if t.rc then [ RcInc e ] else []

let drain_pending t =
  let rel = List.concat_map (fun v -> rc_dec t (Var v)) t.pending in
  t.pending <- [];
  rel

let pop_scope t =
  let sc = List.hd t.scopes in
  t.scopes <- List.tl t.scopes;
  List.concat_map (fun v -> rc_dec t (Var v)) sc.owned

(* Releases for early exits: all owned vars in scopes down to (and
   including) the innermost loop scope for break/continue, or the whole
   stack for return. *)
let release_for_break t =
  let rec go = function
    | [] -> []
    | sc :: rest ->
        let this = List.concat_map (fun v -> rc_dec t (Var v)) sc.owned in
        if sc.is_loop then this else this @ go rest
  in
  go t.scopes

let release_for_return t ~except =
  List.concat_map
    (fun sc ->
      List.concat_map
        (fun v -> if List.mem v except then [] else rc_dec t (Var v))
        sc.owned)
    t.scopes

(* Variables whose ownership transfers to the caller through the returned
   value: the value itself, or matrix fields of a returned tuple. *)
let rec transfer_vars (rty : Types.ty) (ee : expr) : string list =
  match (rty, ee) with
  | Types.TMat _, Var v -> [ v ]
  | Types.TTuple ts, TupleE es when List.length ts = List.length es ->
      List.concat (List.map2 transfer_vars ts es)
  | _ -> []

(* --- coercions ----------------------------------------------------------------- *)

let coerce ~from ~to_ (e : expr) : expr =
  match (from, to_) with
  | Types.TInt, Types.TFloat -> Unop (FloatOfInt, e)
  | Types.TFloat, Types.TInt -> Unop (IntOfFloat, e)
  | _ -> e

let resolve_ty t (te : Ast.ty_expr) span : Types.ty =
  let rec go = function
    | Ast.TyInt -> Types.TInt
    | Ast.TyFloat -> Types.TFloat
    | Ast.TyBool -> Types.TBool
    | Ast.TyVoid -> Types.TVoid
    | Ast.TyTuple ts -> Types.TTuple (List.map go ts)
    | Ast.TyExt ext -> (
        match first_hook (fun h -> h.l_ty t ext) t with
        | Some ty -> ty
        | None -> err span "no extension lowers this type")
  in
  go te

(* --- expressions ------------------------------------------------------------------ *)

let rec lower_expr ?expected t (e : Ast.expr) : stmt list * expr =
  let span = e.Ast.espan in
  let ty = ety e in
  match e.Ast.e with
  | Ast.IntLit i -> ([], Int i)
  | Ast.FloatLit f -> ([], Float f)
  | Ast.BoolLit b -> ([], Bool b)
  | Ast.StrLit s -> ([], Str s)
  | Ast.Ident v -> ([], Var (resolve t v))
  | Ast.Bin (op, a, b) -> (
      let ta = ety a and tb = ety b in
      if Types.is_scalar ta && Types.is_scalar tb && host_binop_ok op then
        let sa, ea = lower_expr t a and sb, eb = lower_expr t b in
        let target =
          match op with
          | Ast.BArith _ -> ty
          | _ -> (
              match Types.promote ta tb with Some p -> p | None -> ta)
        in
        let ea = coerce ~from:ta ~to_:target ea in
        let eb = coerce ~from:tb ~to_:target eb in
        let cop =
          match op with
          | Ast.BArith o -> Arith o
          | Ast.BCmp o -> Cmp o
          | Ast.BLogic o -> Logic o
          | Ast.BExt _ -> assert false
        in
        (sa @ sb, Binop (cop, ea, eb))
      else
        match first_hook (fun h -> h.l_binop t op a b ty span) t with
        | Some r -> r
        | None -> err span "no extension lowers this operator application")
  | Ast.Un (op, a) -> (
      let ta = ety a in
      if Types.is_scalar ta then
        let sa, ea = lower_expr t a in
        (sa, Unop ((match op with Ast.UNeg -> Neg | Ast.UNot -> Not), ea))
      else
        match first_hook (fun h -> h.l_unop t op a ty span) t with
        | Some r -> r
        | None -> err span "no extension lowers this unary operator")
  | Ast.Cast (_, a) ->
      let sa, ea = lower_expr t a in
      (sa, coerce ~from:(ety a) ~to_:ty ea)
  | Ast.CallE (name, args) -> (
      match Hashtbl.find_opt t.funcs name with
      | Some (ptys, rty) ->
          let stmts, argv =
            List.fold_left2
              (fun (acc_s, acc_a) a pty ->
                let sa, ea = lower_expr t a in
                let ea = coerce ~from:(ety a) ~to_:pty ea in
                (acc_s @ sa, acc_a @ [ ea ]))
              ([], []) args ptys
          in
          let call = Call (name, argv) in
          if is_mat rty || contains_mat rty then begin
            (* bind the owned result so it can be released if discarded *)
            let tmp = fresh t "call" in
            add_pending t tmp;
            (stmts @ [ Decl (Types.to_ctype rty, tmp, Some call) ], Var tmp)
          end
          else (stmts, call)
      | None -> (
          match
            first_hook (fun h -> h.l_call t name args ty span ~expected) t
          with
          | Some r -> r
          | None -> err span "no extension lowers call to '%s'" name))
  | Ast.TupleLit es ->
      let stmts, parts =
        List.fold_left
          (fun (acc_s, acc_e) x ->
            let sx, ex = lower_expr t x in
            (acc_s @ sx, acc_e @ [ ex ]))
          ([], []) es
      in
      (stmts, TupleE parts)
  | Ast.Subscript (base, indices) -> (
      match
        first_hook (fun h -> h.l_subscript t base indices ty span) t
      with
      | Some r -> r
      | None -> err span "no extension lowers subscripting")
  | Ast.ExtE ext -> (
      match first_hook (fun h -> h.l_expr t ext ty span) t with
      | Some r -> r
      | None -> err span "no extension lowers this expression")

and host_binop_ok = function Ast.BExt _ -> false | _ -> true

and contains_mat = function
  | Types.TMat _ -> true
  | Types.TTuple ts -> List.exists contains_mat ts
  | _ -> false

(* --- statements --------------------------------------------------------------------- *)

let rec lower_stmt t (st : Ast.stmt) : stmt list =
  let span = st.Ast.sspan in
  let stmts =
    match st.Ast.s with
    | Ast.DeclS (te, name, init) -> (
        let ty = resolve_ty t te span in
        let cty = Types.to_ctype ty in
        match init with
        | None ->
            (* Matrices must be initialised before use; plain decl is fine
               for scalars, and for matrices it is a NULL handle the
               checker allows only when every path assigns first (the
               paper's programs follow this; see Fig 8's `trough`).  The
               variable still owns whatever it ends up holding. *)
            let name = declare t name ~mat:(is_mat ty) in
            if is_mat ty then own t name;
            [ Decl (cty, name, None) ]
        | Some ie ->
            let si, ei = lower_expr ~expected:ty t ie in
            let ei = coerce ~from:(ety ie) ~to_:ty ei in
            let name = declare t name ~mat:(is_mat ty) in
            let retain =
              if is_mat ty && t.rc then
                if consume_pending t ei then []
                else rc_inc t (Var name)
              else []
            in
            if is_mat ty then own t name;
            (si @ [ Decl (cty, name, Some ei) ]) @ retain)
    | Ast.AssignS (lhs, rhs) -> lower_assign t span lhs rhs
    | Ast.IfS (c, a, b) ->
        let sc, ec = lower_expr t c in
        sc @ [ If (ec, lower_block t a, lower_block t b) ]
    | Ast.WhileS (c, body) ->
        let sc, ec = lower_expr t c in
        let cond_drain = drain_pending t in
        if sc = [] && cond_drain = [] then
          [ While (ec, lower_block ~is_loop:true t body) ]
        else
          (* The condition needs prelude statements (e.g. matrix element
             loads bound to temps): evaluate them at the top of every
             iteration — while (1) { prelude; if (!c) break; body } —
             releasing any condition temporaries on both paths. *)
          let body' = lower_block ~is_loop:true t body in
          [
            While
              ( Bool true,
                sc
                @ [ If (Unop (Not, ec), cond_drain @ [ Break ], cond_drain) ]
                @ body' );
          ]
    | Ast.ForS (init, cond, step, body) ->
        push_scope t;
        let si = match init with Some s -> lower_stmt t s | None -> [] in
        let sc, ec =
          match cond with
          | Some c -> lower_expr t c
          | None -> ([], Bool true)
        in
        let cond_drain = drain_pending t in
        let sstep = match step with Some s -> lower_stmt t s | None -> [] in
        (* C semantics: `continue` in a for-loop still runs the step.  The
           lowering appends the step at the bottom of the while body, which
           a continue would skip — so loop-level continues (not those bound
           to inner loops) are rewritten to run the step first. *)
        let rec patch_continue (st : Ast.stmt) : Ast.stmt =
          match st.Ast.s with
          | Ast.ContinueS when step <> None ->
              { st with Ast.s = Ast.BlockS [ Option.get step; st ] }
          | Ast.IfS (c, a, b) ->
              { st with Ast.s = Ast.IfS (c, List.map patch_continue a,
                                         List.map patch_continue b) }
          | Ast.BlockS b ->
              { st with Ast.s = Ast.BlockS (List.map patch_continue b) }
          | _ -> st (* continues inside nested loops bind to those loops *)
        in
        let body = List.map patch_continue body in
        let body' = lower_block ~is_loop:true t body in
        let release = pop_scope t in
        let loop =
          if sc = [] && cond_drain = [] then
            [ While (ec, body' @ sstep) ]
          else
            [
              While
                ( Bool true,
                  sc
                  @ [ If (Unop (Not, ec), cond_drain @ [ Break ], cond_drain) ]
                  @ body' @ sstep );
            ]
        in
        si @ loop @ release
    | Ast.ReturnS None -> release_for_return t ~except:[] @ [ Return None ]
    | Ast.ReturnS (Some e) ->
        let se, ee = lower_expr t e in
        let rty = ety e in
        (* The return value must be computed BEFORE the scope releases run
           (it may read matrices that the releases free), so any non-trivial
           expression is bound to a temporary first. *)
        let bind, ret_expr =
          match ee with
          | Var _ | Int _ | Float _ | Bool _ -> ([], ee)
          | _ ->
              let tmp = fresh t "ret" in
              ([ Decl (Types.to_ctype rty, tmp, Some ee) ], Var tmp)
        in
        (* Ownership of every matrix reachable from the returned value
           transfers to the caller: borrowed parameters are retained,
           pending temporaries stop being drained, scope-owned locals stop
           being released.  Decided on the original expression [ee], whose
           variables name the transferred handles. *)
        let except = ref [] and retain = ref [] in
        if contains_mat rty then
          List.iter
            (fun v ->
              if List.mem v t.params then retain := !retain @ rc_inc t (Var v)
              else if List.mem v t.pending then
                t.pending <- List.filter (fun x -> x <> v) t.pending
              else except := v :: !except)
            (transfer_vars rty ee);
        se @ bind @ !retain @ drain_pending t
        @ release_for_return t ~except:!except
        @ [ Return (Some ret_expr) ]
    | Ast.BreakS -> release_for_break t @ [ Break ]
    | Ast.ContinueS -> release_for_break t @ [ Continue ]
    | Ast.ExprStmt e ->
        let se, ee = lower_expr t e in
        (* Pure values are dropped; effectful calls are kept. *)
        let discard =
          match ee with
          | Int _ | Float _ | Bool _ | Var _ -> []
          | ee -> [ ExprS ee ]
        in
        se @ discard
    | Ast.BlockS body -> [ Block (lower_block t body) ]
    | Ast.ExtS ext -> (
        match first_hook (fun h -> h.l_stmt t ext span) t with
        | Some ss -> ss
        | None -> err span "no extension lowers this statement")
  in
  (* Wrap the whole lowered statement (including temp releases) in a
     provenance block.  [Located] is transparent to emission, scoping and
     transformation matching, so this is observable only to the profiler
     and the [#line] emitter. *)
  match stmts @ drain_pending t with
  | [] -> []
  | ss -> [ Located (span, ss) ]

and lower_block ?(is_loop = false) t body : stmt list =
  push_scope ~is_loop t;
  let stmts = List.concat_map (lower_stmt t) body in
  stmts @ pop_scope t

and lower_assign t span (lhs : Ast.expr) (rhs : Ast.expr) : stmt list =
  match lhs.Ast.e with
  | Ast.Ident v when is_mat (ety lhs) && Types.is_scalar (ety rhs) ->
      (* Whole-matrix scalar fill: m = 0 writes every element (the matrix
         extension's overloaded assignment). *)
      let v = resolve t v in
      let elem =
        match ety lhs with
        | Types.TMat (e, _) -> e
        | _ -> assert false
      in
      let sr, er = lower_expr t rhs in
      let er = coerce ~from:(ety rhs) ~to_:(Types.elem_ty elem) er in
      let i = fresh t "i" in
      sr
      @ [
          For
            {
              index = i;
              bound = MSize (Var v);
              body = [ MSetFlat (Var v, Var i, er) ];
              prov = Some span;
            };
        ]
  | Ast.Ident v ->
      let v = resolve t v in
      let ty = ety lhs in
      let sr, er = lower_expr ~expected:ty t rhs in
      let er = coerce ~from:(ety rhs) ~to_:ty er in
      if is_mat ty && t.rc then
        let retain = if consume_pending t er then [] else rc_inc t er in
        (* Release the old referent before rebinding (retain-then-release
           order guards the self-assignment m = m). *)
        sr @ retain @ rc_dec t (Var v) @ [ Assign (LVar v, er) ]
      else sr @ [ Assign (LVar v, er) ]
  | Ast.Subscript (base, indices) -> (
      match
        first_hook (fun h -> h.l_subscript_assign t base indices rhs span) t
      with
      | Some ss -> ss
      | None -> err span "no extension lowers subscript assignment")
  | Ast.TupleLit parts ->
      (* host-packaged tuples: destructuring assignment (§III-B) *)
      let sr, er = lower_expr t rhs in
      (* An owned temporary tuple transfers its inner references to the
         assigned variables; a tuple aliased from elsewhere must retain
         them. *)
      let transferred = consume_pending t er in
      let tmp = fresh t "tup" in
      let decl = Decl (Types.to_ctype (ety rhs), tmp, Some er) in
      let assigns =
        List.concat
          (List.mapi
             (fun i (p : Ast.expr) ->
               match p.Ast.e with
               | Ast.Ident v ->
                   let v = resolve t v in
                   let pty = ety p in
                   if is_mat pty && t.rc then
                     rc_dec t (Var v)
                     @ [ Assign (LVar v, Field (Var tmp, i)) ]
                     @ (if transferred then [] else rc_inc t (Var v))
                   else [ Assign (LVar v, Field (Var tmp, i)) ]
               | _ ->
                   err p.Ast.espan
                     "only variables can appear in a destructuring pattern")
             parts)
      in
      sr @ (decl :: assigns)
  | _ -> err span "unsupported assignment target"

(* --- programs -------------------------------------------------------------------------- *)

let lower_fundef t (f : Ast.fundef) : func =
  t.scopes <- [];
  t.pending <- [];
  t.cur_body <- f.Ast.body;
  t.cur_fname <- f.Ast.fname;
  push_scope t;
  t.params <-
    List.filter_map
      (fun (te, name) ->
        match resolve_ty t te f.Ast.fspan with
        | Types.TMat _ -> Some name
        | _ -> None)
      f.Ast.params;
  let body = List.concat_map (lower_stmt t) f.Ast.body in
  let release = pop_scope t in
  let rec ends_with_return ss =
    match List.rev ss with
    | Return _ :: _ -> true
    | Located (_, b) :: _ -> ends_with_return b
    | _ -> false
  in
  let needs_trailing_release = not (ends_with_return body) in
  {
    f_name = f.Ast.fname;
    f_params =
      List.map
        (fun (te, name) -> (Types.to_ctype (resolve_ty t te f.Ast.fspan), name))
        f.Ast.params;
    f_ret = Types.to_ctype (resolve_ty t f.Ast.ret f.Ast.fspan);
    f_body = (if needs_trailing_release then body @ release else body);
    f_span = Some f.Ast.fspan;
    f_origin = None;
  }

(** How many times {!lower_program} has run in this process.  The pass
    pipeline made lowering a once-per-compilation affair ([mmc explain]
    used to re-lower once per requested stage); the equivalence suite
    asserts on deltas of this counter.  A plain ref, not a telemetry
    counter, so the assertion needs no [Telemetry.set_enabled]. *)
let runs = ref 0

(** [lower_program hooks ~rc prog] — translate a checked program to the
    {e baseline} CIR: every optimization decision (with-loop fusion,
    slice-copy aliasing, auto-parallelization, transform scripts) is
    recorded as a [Site] annotation around the unoptimized statements it
    would rewrite; the CIR pass pipeline consumes the sites.  [rc]
    enables reference-count insertion (the refptr extension). *)
let lower_program ?(warn = fun _ -> ()) (hooks : hooks list) ~(rc : bool)
    (prog : Ast.program) : program =
  incr runs;
  let t =
    {
      gensym = Support.Gensym.create ();
      funcs = Hashtbl.create 16;
      hooks;
      rc;
      scopes = [];
      params = [];
      pending = [];
      extra_funcs = [];
      cur_body = [];
      cur_fname = "";
      warn;
    }
  in
  List.iter
    (fun (f : Ast.fundef) ->
      Hashtbl.replace t.funcs f.Ast.fname
        ( List.map (fun (te, _) -> resolve_ty t te f.Ast.fspan) f.Ast.params,
          resolve_ty t f.Ast.ret f.Ast.fspan ))
    prog;
  (* Bind before reading [extra_funcs]: it is filled during lowering. *)
  let user_funcs = List.map (lower_fundef t) prog in
  let funcs = user_funcs @ t.extra_funcs in
  let main =
    if List.exists (fun (f : Ast.fundef) -> f.Ast.fname = "main") prog then
      "main"
    else
      match prog with
      | f :: _ -> f.Ast.fname
      | [] -> "main"
  in
  { funcs; main }

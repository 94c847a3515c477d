(** Lowering of the matrix constructs to plain-C loop nests (§III): the
    translation the paper shows in Fig 3 for the with-loop, plus the
    general §III-A3 indexing (mask/gather indices materialise selection
    vectors, exactly what generated C does), elementwise and linear-algebra
    operator overloads, matrixMap with its lifted per-slice function, and
    the [init]/[dimSize]/[readMatrix]/[writeMatrix] builtins.

    This is the {e baseline} lowering: every optimization decision —
    with-loop fusion, slice-copy aliasing, auto-parallelization (§III-C:
    the outermost loop of every genarray and the matrixMap iteration
    space can become [ParFor] regions for the enhanced fork-join pool) —
    is emitted in its unoptimized form wrapped in a {!Sites} annotation,
    and the extension's CIR passes ({!Passes}) consume the sites.  Only
    analyses that genuinely need AST context (the alias-safety scan for
    slice-copy elimination) run here; their verdicts travel in the site
    payload. *)

module L = Cminus.Lower
module T = Cminus.Types
module A = Cminus.Ast
module S = Runtime.Scalar
module Nd = Runtime.Ndarray
module R = Support.Remark
open Cir.Ir

let span_err = L.err

(* §III-A5 optimization effectiveness, observable via --stats/--trace:
   with-loops whose result fed its consumer directly (fused) vs. ones that
   paid the library-style copy, slices that allocated a copy vs. identity
   slices aliased away by copy elimination. *)
let c_fused = Support.Telemetry.counter "lower.with_loops_fused"
let c_library_copies = Support.Telemetry.counter "lower.library_copies"
let c_slice_copies = Support.Telemetry.counter "lower.slice_copies"
let c_identity_slices = Support.Telemetry.counter "lower.identity_slices_aliased"

(* Current subscript context for [end]: (matrix handle, dimension). *)
let index_ctx : (expr * int) option ref = ref None

let ety = L.ety

let mat_of_ty span = function
  | T.TMat (e, r) -> (e, r)
  | ty -> span_err span "internal: expected a matrix type, got %s" (T.to_string ty)

(* Ensure a lowered matrix value is a variable (bind a temp otherwise). *)
let bind_mat t (stmts, e) (ty : T.ty) : stmt list * string =
  match e with
  | Var v -> (stmts, v)
  | e ->
      let tmp = L.fresh t "m" in
      (stmts @ [ Decl (T.to_ctype ty, tmp, Some e) ], tmp)

(* Bind any scalar expression so it is evaluated once. *)
let bind_scalar t (stmts, e) (ty : T.ty) : stmt list * expr =
  match e with
  | Var _ | Int _ | Float _ | Bool _ -> (stmts, e)
  | e ->
      let tmp = L.fresh t "s" in
      (stmts @ [ Decl (T.to_ctype ty, tmp, Some e) ], Var tmp)

(** Row-major flat offset of [idxs] given per-dimension extents. *)
let flat_offset (extents : expr list) (idxs : expr list) : expr =
  match (extents, idxs) with
  | _ :: ds, i0 :: is ->
      List.fold_left2 (fun acc d i -> fold_expr ((acc *: d) +: i)) i0 ds is
  | _ -> Int 0

let dims_of v rank = List.init rank (fun d -> MDim (Var v, Int d))

(* Elementwise conversion of a loaded element. *)
let conv ~(from : Nd.elem) ~(to_ : Nd.elem) e =
  match (from, to_) with
  | Nd.EInt, Nd.EFloat -> Unop (FloatOfInt, e)
  | _ -> e

(* --- elementwise loops (§III-A2) ------------------------------------------- *)

(* Build: r = alloc(out_elem, dims of model); for i < size(model):
     r[i] = op(load a, load b).  [load] gets the flat index var.
   Each flat index writes exactly one output element, so under
   auto-parallelization the loop becomes a ParFor region (§III-C). *)
let ew_loop t ~span ~(model : string) ~(rank : int) ~(out_elem : Nd.elem)
    ~(body : expr -> expr) : stmt list * expr =
  let r = L.fresh t "ew" and i = L.fresh t "i" in
  let alloc = MAlloc (out_elem, dims_of model rank) in
  let loop =
    {
      index = i;
      bound = MSize (Var model);
      body = [ MSetFlat (Var r, Var i, body (Var i)) ];
      prov = Some span;
    }
  in
  let stmts =
    [
      Decl (CMat (out_elem, rank), r, Some alloc);
      Site (Sites.AutoPar { kind = Sites.Elemwise; span }, [ For loop ]);
    ]
  in
  L.add_pending t r;
  (stmts, Var r)

let lower_mat t (e : A.expr) : stmt list * string =
  bind_mat t (L.lower_expr t e) (ety e)

let cir_binop (op : A.binop) : binop =
  match op with
  | A.BArith o -> Arith o
  | A.BCmp o -> Cmp o
  | A.BLogic o -> Logic o
  | A.BExt o when o = Nodes.op_dotstar -> Arith S.Mul
  | A.BExt o -> invalid_arg ("cir_binop: " ^ o)

let h_binop t (op : A.binop) (a : A.expr) (b : A.expr) (rty : T.ty) span :
    (stmt list * expr) option =
  let ta = ety a and tb = ety b in
  match (op, ta, tb) with
  (* x1 :: x2 — materialise the integer range vector (Fig 8). *)
  | A.BExt o, T.TInt, T.TInt when o = Nodes.op_range ->
      let sa, ea = bind_scalar t (L.lower_expr t a) T.TInt in
      let sb, eb = bind_scalar t (L.lower_expr t b) T.TInt in
      let n = L.fresh t "n" and r = L.fresh t "rng" and i = L.fresh t "i" in
      let stmts =
        sa @ sb
        @ [
            Decl (CInt, n, Some (fold_expr ((eb -: ea) +: Int 1)));
            If (Var n <: Int 0, [ Assign (LVar n, Int 0) ], []);
            Decl (CMat (Nd.EInt, 1), r, Some (MAlloc (Nd.EInt, [ Var n ])));
            For
              {
                index = i;
                bound = Var n;
                body = [ MSetFlat (Var r, Var i, ea +: Var i) ];
                prov = Some span;
              };
          ]
      in
      L.add_pending t r;
      Some (stmts, Var r)
  (* linear-algebra matrix multiplication (§III-A2) *)
  | A.BArith S.Mul, T.TMat (e1, 2), T.TMat (_, 2) ->
      let sa, va = lower_mat t a in
      let sb, vb = lower_mat t b in
      let m = MDim (Var va, Int 0)
      and k = MDim (Var va, Int 1)
      and n = MDim (Var vb, Int 1) in
      let r = L.fresh t "mm" in
      let i = L.fresh t "i" and j = L.fresh t "j" and l = L.fresh t "l" in
      let acc = L.fresh t "acc" in
      let elem_zero = if e1 = Nd.EFloat then Float 0. else Int 0 in
      let cty = if e1 = Nd.EFloat then CFloat else CInt in
      let body =
        [
          Decl (cty, acc, Some elem_zero);
          For
            {
              index = l;
              bound = k;
              prov = Some span;
              body =
                [
                  Assign
                    ( LVar acc,
                      Var acc
                      +: Binop
                           ( Arith S.Mul,
                             MGetFlat (Var va, (Var i *: k) +: Var l),
                             MGetFlat (Var vb, (Var l *: n) +: Var j) ) );
                ];
            };
          MSetFlat (Var r, (Var i *: n) +: Var j, Var acc);
        ]
      in
      (* Each outer iteration writes result row [i] only, so the row loop
         parallelises under auto-par (§III-C) — the interpreter's analogue
         of dispatching matmul row blocks to the pool. *)
      let row_loop =
        {
          index = i;
          bound = m;
          body = [ For { index = j; bound = n; body; prov = Some span } ];
          prov = Some span;
        }
      in
      let stmts =
        sa @ sb
        @ [
            Decl (CMat (e1, 2), r, Some (MAlloc (e1, [ m; n ])));
            Site
              ( Sites.AutoPar { kind = Sites.MatmulRow; span },
                [ For row_loop ] );
          ]
      in
      L.add_pending t r;
      Some (stmts, Var r)
  (* matrix (.) matrix elementwise: + - / % .* comparisons logic *)
  | _, T.TMat (e1, r1), T.TMat (_, _) ->
      let out_elem, _ = mat_of_ty span rty in
      let sa, va = lower_mat t a in
      let sb, vb = lower_mat t b in
      let arith_elem = match rty with T.TMat (e, _) -> e | _ -> e1 in
      let s, v =
        ew_loop t ~span ~model:va ~rank:r1 ~out_elem ~body:(fun i ->
            let load_conv m from =
              match op with
              | A.BArith _ | A.BExt _ ->
                  conv ~from ~to_:arith_elem (MGetFlat (Var m, i))
              | _ -> MGetFlat (Var m, i)
            in
            Binop (cir_binop op, load_conv va e1, load_conv vb e1))
      in
      Some (sa @ sb @ s, v)
  (* matrix (.) scalar and scalar (.) matrix *)
  | _, T.TMat (e1, r1), sc when T.is_scalar sc ->
      let out_elem, _ = mat_of_ty span rty in
      let sa, va = lower_mat t a in
      let sb, eb = bind_scalar t (L.lower_expr t b) sc in
      let arith_elem = match rty with T.TMat (e, _) -> e | _ -> e1 in
      let scalar_conv =
        match (sc, arith_elem) with
        | T.TInt, Nd.EFloat -> Unop (FloatOfInt, eb)
        | T.TFloat, Nd.EInt -> Unop (IntOfFloat, eb)
        | _ -> eb
      in
      let s, v =
        ew_loop t ~span ~model:va ~rank:r1 ~out_elem ~body:(fun i ->
            Binop
              ( cir_binop op,
                conv ~from:e1 ~to_:arith_elem (MGetFlat (Var va, i)),
                scalar_conv ))
      in
      Some (sa @ sb @ s, v)
  | _, sc, T.TMat (e1, r1) when T.is_scalar sc ->
      let out_elem, _ = mat_of_ty span rty in
      let sa, ea = bind_scalar t (L.lower_expr t a) sc in
      let sb, vb = lower_mat t b in
      let arith_elem = match rty with T.TMat (e, _) -> e | _ -> e1 in
      let scalar_conv =
        match (sc, arith_elem) with
        | T.TInt, Nd.EFloat -> Unop (FloatOfInt, ea)
        | T.TFloat, Nd.EInt -> Unop (IntOfFloat, ea)
        | _ -> ea
      in
      let s, v =
        ew_loop t ~span ~model:vb ~rank:r1 ~out_elem ~body:(fun i ->
            Binop
              ( cir_binop op,
                scalar_conv,
                conv ~from:e1 ~to_:arith_elem (MGetFlat (Var vb, i)) ))
      in
      Some (sa @ sb @ s, v)
  | _ -> None

let h_unop t (op : A.unop) (a : A.expr) (rty : T.ty) span :
    (stmt list * expr) option =
  match ety a with
  | T.TMat (e1, r1) ->
      let out_elem = match rty with T.TMat (e, _) -> e | _ -> e1 in
      let sa, va = lower_mat t a in
      let s, v =
        ew_loop t ~span ~model:va ~rank:r1 ~out_elem ~body:(fun i ->
            match op with
            | A.UNeg -> Unop (Neg, MGetFlat (Var va, i))
            | A.UNot -> Unop (Not, MGetFlat (Var va, i)))
      in
      Some (sa @ s, v)
  | _ -> None

(* --- subscripting (§III-A3) ---------------------------------------------------- *)

type spec =
  | SAt of expr
  | SAll
  | SGather of string  (** variable holding a 1-D int selection vector *)

(* Lower one index item for dimension [d] of matrix var [base]. *)
let lower_index t (base : string) (base_ty : T.ty) (d : int) (ix : A.index) :
    stmt list * spec =
  match ix with
  | A.IAll _ -> ([], SAll)
  | A.IExpr e -> (
      let saved = !index_ctx in
      index_ctx := Some (Var base, d);
      let lowered = L.lower_expr t e in
      index_ctx := saved;
      match ety e with
      | T.TInt ->
          let s, v = bind_scalar t lowered T.TInt in
          (s, SAt v)
      | T.TMat (Nd.EInt, 1) ->
          let s, v = bind_mat t lowered (ety e) in
          (s, SGather v)
      | T.TMat (Nd.EBool, 1) ->
          (* Logical indexing: materialise the selection vector of true
             positions (what the generated C does for mask indices). *)
          let s, mask = bind_mat t lowered (ety e) in
          let cnt = L.fresh t "cnt"
          and sel = L.fresh t "sel"
          and i = L.fresh t "i"
          and k = L.fresh t "k" in
          let build =
            [
              Decl (CInt, cnt, Some (Int 0));
              For
                {
                  index = i;
                  bound = MSize (Var mask);
                  prov = Some e.A.espan;
                  body =
                    [
                      If
                        ( MGetFlat (Var mask, Var i),
                          [ Assign (LVar cnt, Var cnt +: Int 1) ],
                          [] );
                    ];
                };
              Decl (CMat (Nd.EInt, 1), sel, Some (MAlloc (Nd.EInt, [ Var cnt ])));
              Decl (CInt, k, Some (Int 0));
              For
                {
                  index = i;
                  bound = MSize (Var mask);
                  prov = Some e.A.espan;
                  body =
                    [
                      If
                        ( MGetFlat (Var mask, Var i),
                          [
                            MSetFlat (Var sel, Var k, Var i);
                            Assign (LVar k, Var k +: Int 1);
                          ],
                          [] );
                    ];
                };
            ]
          in
          L.add_pending t sel;
          (s @ build, SGather sel)
      | ty ->
          span_err e.A.espan "internal: index of type %s at dimension %d of %s"
            (T.to_string ty) d
            (T.to_string base_ty))

let lower_specs t base base_ty indices =
  List.fold_left
    (fun (stmts, specs, d) ix ->
      let s, sp = lower_index t base base_ty d ix in
      (stmts @ s, specs @ [ sp ], d + 1))
    ([], [], 0) indices
  |> fun (s, sp, _) -> (s, sp)

(* Per-dimension result extent for a kept spec. *)
let spec_extent base d = function
  | SAll -> MDim (Var base, Int d)
  | SGather g -> MSize (Var g)
  | SAt _ -> invalid_arg "spec_extent"

(* --- alias safety for identity-slice copy elimination (§III-A5) --------------

   `m[:, …, :]` may be lowered to a retained alias of `m` only when that is
   observationally equal to the copy: no write to the shared buffer while
   both handles are live.  We require, over the whole current function
   body:

   - the slice is the direct initialiser of a matrix variable
     (`Matrix b = m[:, :];` or `b = m[:, :];`) — any other context
     (call argument, return value, operand) gets a copy, so the alias can
     never escape the function;
   - no handle sharing a buffer with the base or the destination is ever
     buffer-written: subscript-assigned, whole-matrix scalar-filled,
     passed to a function (the callee may mutate a borrowed parameter),
     handed to matrixMap (the lifted per-slice function gets direct
     access), stored in a tuple (writes through the tuple are untracked),
     or returned (the buffer would escape to the caller).  Buffer sharing
     is closed over plain handle copies (`Matrix c = b;`) and other
     identity slices.  Handles of unknown origin may share any buffer
     with one another: the matrix parameters (a caller can pass one
     matrix twice) and names rebound by tuple destructuring;
   - the function contains no foreign extension nodes we cannot see into
     (a transform or cilk statement could mutate any matrix).

   Anything else falls back to the allocating copy — the seed semantics. *)

exception Opaque
(* foreign extension node: give up on aliasing for this function *)

let is_mat_ident (e : A.expr) =
  match (e.A.e, e.A.ety) with
  | A.Ident v, Some ty when L.contains_mat ty -> Some v
  | _ -> None

(* Builtins that read their matrix argument but never write its buffer. *)
let readonly_call = function
  | "dimSize" | "writeMatrix" -> true
  | _ -> false

let is_identity_slice ixs =
  ixs <> [] && List.for_all (function A.IAll _ -> true | _ -> false) ixs

(* Immediate sub-expressions; [Opaque] for foreign extension nodes. *)
let sub_exprs (e : A.expr) : A.expr list =
  match e.A.e with
  | A.Ident _ | A.IntLit _ | A.FloatLit _ | A.BoolLit _ | A.StrLit _
  | A.ExtE Nodes.EEnd ->
      []
  | A.Bin (_, a, b) -> [ a; b ]
  | A.Un (_, a) | A.Cast (_, a) -> [ a ]
  | A.CallE (_, es) | A.TupleLit es -> es
  | A.Subscript (b, ixs) ->
      b :: List.filter_map (function A.IExpr x -> Some x | A.IAll _ -> None) ixs
  | A.ExtE (Nodes.EWith (gen, op)) -> (
      gen.Nodes.lo @ gen.Nodes.hi
      @
      match op with
      | Nodes.OGenarray (shape, b) -> shape @ [ b ]
      | Nodes.OFold (_, z, b) -> [ z; b ])
  | A.ExtE (Nodes.EMatrixMap (_, m, _)) -> [ m ]
  | A.ExtE (Nodes.EInit (_, dims)) -> dims
  | A.ExtE _ -> raise Opaque

(* What one scan of a statement list finds. *)
type scan = {
  writes : string list;  (** buffer written in place *)
  escapes : string list;
      (** handed where writes are untracked: a non-readonly call, a tuple,
          matrixMap, a return, or rebound by tuple destructuring *)
  edges : (string * string) list;  (** pairs that may share a buffer *)
  bound : string list;
      (** declared or assigned, with-loop generator indices included *)
}

(* One scan of a statement list.  [params] are handles of unknown origin
   (the function's matrix parameters); names rebound by tuple
   destructuring join them, and all of them may share a buffer.  [visit]
   sees every statement-level expression, assignment targets included. *)
let scan_body ?(params = []) ?(visit = fun _ -> ()) body =
  let writes = ref [] and escapes = ref [] and edges = ref [] in
  let bound = ref [] and unknown = ref params in
  let escape e = Option.iter (fun v -> escapes := v :: !escapes) (is_mat_ident e) in
  let rec expr (e : A.expr) =
    (match e.A.e with
    (* the callee may mutate a borrowed matrix argument *)
    | A.CallE (f, args) when not (readonly_call f) -> List.iter escape args
    (* matrices stored in a tuple can be written through it later *)
    | A.TupleLit es -> List.iter escape es
    | A.ExtE (Nodes.EMatrixMap (_, m, _)) -> escape m
    | A.ExtE (Nodes.EWith (gen, _)) -> bound := gen.Nodes.ids @ !bound
    | _ -> ());
    List.iter expr (sub_exprs e)
  in
  let top e =
    visit e;
    expr e
  in
  (* [bind name rhs] — a handle named [name] now holds [rhs]'s value:
     record the buffer-sharing edge when the rhs is a plain handle copy or
     an identity slice. *)
  let bind name (rhs : A.expr) =
    bound := name :: !bound;
    match rhs.A.e with
    | A.Ident v when Option.is_some (is_mat_ident rhs) ->
        edges := (name, v) :: !edges
    | A.Subscript (b, ixs) when is_identity_slice ixs ->
        Option.iter (fun v -> edges := (name, v) :: !edges) (is_mat_ident b)
    | _ -> ()
  in
  (* Matrix idents whose buffer transfers to the caller through a returned
     value (mirrors the host lowering's [transfer_vars]): a returned name
     or tuple of names; any other expression returns a fresh buffer. *)
  let rec returned (e : A.expr) =
    match e.A.e with
    | A.Ident _ -> escape e
    | A.TupleLit es -> List.iter returned es
    | _ -> ()
  in
  let rec stmt (st : A.stmt) =
    match st.A.s with
    | A.DeclS (_, name, init) -> (
        match init with
        | Some i ->
            top i;
            bind name i
        | None -> bound := name :: !bound)
    | A.AssignS (lhs, rhs) -> (
        top rhs;
        visit lhs;
        match lhs.A.e with
        | A.Ident v -> (
            bind v rhs;
            (* whole-matrix scalar fill writes the buffer in place;
               rebinding a handle does not *)
            match (lhs.A.ety, rhs.A.ety) with
            | Some (T.TMat _), Some ty when T.is_scalar ty -> writes := v :: !writes
            | _ -> ())
        | A.Subscript (b, ixs) -> (
            List.iter (function A.IExpr x -> expr x | A.IAll _ -> ()) ixs;
            match is_mat_ident b with
            | Some v -> writes := v :: !writes
            | None -> raise Opaque (* write through an unnamed handle *))
        | A.TupleLit parts ->
            (* destructuring rebinds the targets to untracked handles *)
            List.iter
              (fun (p : A.expr) ->
                escape p;
                match p.A.e with
                | A.Ident v ->
                    bound := v :: !bound;
                    if Option.is_some (is_mat_ident p) then unknown := v :: !unknown
                | _ -> ())
              parts
        | _ -> raise Opaque)
    | A.IfS (c, a, b) ->
        top c;
        List.iter stmt a;
        List.iter stmt b
    | A.WhileS (c, b) ->
        top c;
        List.iter stmt b
    | A.ForS (i, c, s, b) ->
        Option.iter stmt i;
        Option.iter top c;
        Option.iter stmt s;
        List.iter stmt b
    | A.ReturnS e ->
        Option.iter
          (fun e ->
            top e;
            returned e)
          e
    | A.BreakS | A.ContinueS -> ()
    | A.ExprStmt e -> top e
    | A.BlockS b -> List.iter stmt b
    | A.ExtS _ -> raise Opaque
  in
  List.iter stmt body;
  let shared =
    match !unknown with [] -> [] | h :: rest -> List.map (fun v -> (h, v)) rest
  in
  { writes = !writes; escapes = !escapes; edges = shared @ !edges; bound = !bound }

(* Close the written/escaping set over may-share-a-buffer edges (both
   directions: a write to either end is visible through the other). *)
let closure seeds edges =
  let w = ref (List.sort_uniq compare seeds) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (a, b) ->
        let ha = List.mem a !w and hb = List.mem b !w in
        if ha && not hb then begin
          w := b :: !w;
          changed := true
        end
        else if hb && not ha then begin
          w := a :: !w;
          changed := true
        end)
      edges
  done;
  !w

(* The variable to which THIS subscript occurrence (identified physically,
   base and index list) is directly bound, and — for a declaration in a
   block — the declaration's span and the statements after it, the
   variable's scope.  [None] in any other context. *)
let slice_binding body base indices =
  let rhs_matches (e : A.expr) =
    match e.A.e with
    | A.Subscript (b, ixs) -> b == base && ixs == indices
    | _ -> false
  in
  let rec block = function
    | [] -> None
    | ({ A.s = A.DeclS (_, name, Some i); _ } as st) :: rest
      when rhs_matches i ->
        Some (name, Some (st.A.sspan, rest))
    | st :: rest -> ( match stmt st with Some _ as r -> r | None -> block rest)
  and stmt (st : A.stmt) =
    match st.A.s with
    | A.DeclS (_, name, Some r) | A.AssignS ({ A.e = A.Ident name; _ }, r)
      when rhs_matches r ->
        Some (name, None)
    | A.IfS (_, a, b) -> ( match block a with Some _ as r -> r | None -> block b)
    | A.WhileS (_, b) | A.BlockS b -> block b
    | A.ForS (i, _, s, b) ->
        List.find_map Fun.id [ Option.bind i stmt; Option.bind s stmt; block b ]
    | _ -> None
  in
  block body

(** [alias_verdict t base indices] — may this identity slice be lowered to
    a retained alias?  Returns the decision {e and} the analysis verdict
    as prose, so the stderr diagnostic, the optimization remark and the
    [--json] report all carry the same reason. *)
let alias_verdict t (base : A.expr) (indices : A.index list) : bool * string =
  match (is_mat_ident base, t.L.cur_body) with
  | None, _ -> (false, "slice base is not a named matrix variable")
  | _, [] -> (false, "no whole-function context for the alias analysis")
  | Some a, body -> (
      match slice_binding body base indices with
      | None ->
          ( false,
            "slice result is not bound directly to a variable, so the alias \
             could escape its statement" )
      | Some (dest, _) -> (
          match scan_body ~params:t.L.params body with
          | exception Opaque ->
              ( false,
                "function contains statements from extensions the alias \
                 analysis cannot see into" )
          | s -> (
              let written = closure (s.writes @ s.escapes) s.edges in
              match List.find_opt (fun v -> List.mem v written) [ a; dest ] with
              | Some v ->
                  ( false,
                    Printf.sprintf
                      "buffer of '%s' may be written or escape while both \
                       handles are live"
                      v )
              | None ->
                  ( true,
                    "no handle sharing the buffer is written or escapes \
                     while both handles are live" ))))

(* --- in-place slice reads (§III-A5, Fig 1 -> Fig 3) ---------------------------

   `Matrix t <1> s = m[i, j, :];` may skip the copy and have every `s[k]`
   read `m[i, j, k]` in place.  That equals reading the copy only if
   nothing in the slice variable's scope (the rest of its block) can tell
   the two apart:

   - every use of `s` is an element read `s[k]` or `dimSize(s, 0)`, and
     `s` is not redeclared;
   - the base is neither rebound nor redeclared, and its buffer is not
     written: no handle that may share it (closed over the whole
     function's buffer-sharing edges, as for identity slices) is written
     in the scope, and none escapes anywhere in the function — a handle
     the analysis lost track of, such as the result of a call that was
     given the base, could be written in the scope unseen;
   - no variable a fixed index reads is assigned or redeclared (a
     with-loop generator index counts as a declaration).

   A slice declared in a loop body is taken afresh every iteration, so a
   loop index that changes only between iterations does not block it. *)

(** [inplace_blocker ~params ~body ~var ~base ~indices scope] — [None]
    when reading [base] in place is proven equal to reading the slice
    [var] over its [scope]; otherwise the blocking variable (when one is
    to blame) and the reason as prose.  [body] is the whole function with
    matrix parameters [params]. *)
let inplace_blocker ~params ~body ~var ~base ~indices scope =
  (* [var] occurs only as [var[k]] with an int [k], or in [dimSize(var, 0)] *)
  let rec reads_only (e : A.expr) =
    match e.A.e with
    | A.Subscript ({ A.e = A.Ident v; _ }, [ A.IExpr k ])
      when v = var && k.A.ety = Some T.TInt ->
        reads_only k
    | A.CallE ("dimSize", [ { A.e = A.Ident v; _ }; { A.e = A.IntLit 0; _ } ])
      when v = var ->
        true
    | A.Ident v -> v <> var
    | _ -> List.for_all reads_only (sub_exprs e)
  in
  let misused = ref false in
  let visit e = if not (reads_only e) then misused := true in
  let rec idents (e : A.expr) =
    match e.A.e with
    | A.Ident v -> [ v ]
    | _ -> List.concat_map idents (sub_exprs e)
  in
  match
    ( scan_body ~visit scope,
      scan_body ~params body,
      List.concat_map (function A.IExpr x -> idents x | A.IAll _ -> []) indices
    )
  with
  | exception Opaque ->
      Some
        ( None,
          "the function contains statements from extensions the analysis \
           cannot see into" )
  | here, whole, index_vars -> (
      let blame v fmt = Some (Some v, Printf.sprintf fmt v) in
      let written = closure (here.writes @ whole.escapes) whole.edges in
      if !misused || var = base || List.mem var here.writes || List.mem var here.bound
      then blame var "'%s' is used other than as an element read or dimSize"
      else if List.mem base here.bound || List.mem base written then
        blame base
          "buffer of '%s' may be written or rebound while the slice is in \
           scope"
      else
        match List.find_opt (fun v -> List.mem v here.bound) index_vars with
        | Some v -> blame v "'%s' is assigned or redeclared while the slice is in scope"
        | None -> None)

(* The in-place candidate for a slice with exactly one [:] and scalar
   indices elsewhere, bound by a declaration; [None] otherwise. *)
let inplace_site t (base : A.expr) (indices : A.index list) specs =
  let is_all = function SAll -> true | _ -> false in
  let fixed = List.filter_map (function SAt e -> Some e | _ -> None) specs in
  match
    ( List.find_index is_all specs,
      is_mat_ident base,
      slice_binding t.L.cur_body base indices )
  with
  | Some free, Some b, Some (var, Some (decl, scope))
    when List.length fixed + 1 = List.length specs ->
      Some
        {
          Sites.var;
          fixed;
          free;
          decl;
          blocked =
            inplace_blocker ~params:t.L.params ~body:t.L.cur_body ~var ~base:b
              ~indices scope;
        }
  | _ -> None

let h_subscript t (base : A.expr) (indices : A.index list) (rty : T.ty) span :
    (stmt list * expr) option =
  match ety base with
  | T.TMat (_elem, rank) ->
      let sb, vb = lower_mat t base in
      let si, specs = lower_specs t vb (ety base) indices in
      let all_at = List.for_all (function SAt _ -> true | _ -> false) specs in
      if all_at then
        (* (a) standard indexing: extract one element, no allocation *)
        let idxs = List.map (function SAt e -> e | _ -> assert false) specs in
        let off = flat_offset (dims_of vb rank) idxs in
        Some (sb @ si, MGetFlat (Var vb, off))
      else begin
        (* Allocating copy of the selected region — the baseline for every
           non-scalar selection.  For an identity slice m[:, …, :] the
           §III-A5 copy elimination pass may replace the payload of the
           [SliceAlias] site below with a retained alias of the source,
           and for a declared slice with one [:] drop it and read the
           source in place.  Both verdicts (the alias safety and the
           in-place analysis) need the AST context, so they are computed
           HERE and shipped in the site. *)
        let identity =
          List.for_all (function SAll -> true | _ -> false) specs
        in
        let safe, why =
          if identity then alias_verdict t base indices else (false, "")
        in
        let inplace = inplace_site t base indices specs in
        let out_elem, _out_rank = mat_of_ty span rty in
        let kept_dims =
          List.mapi (fun d sp -> (d, sp)) specs
          |> List.filter_map (fun (d, sp) ->
                 match sp with SAt _ -> None | _ -> Some d)
        in
        let r = L.fresh t "slice" in
        let out_vars = List.map (fun _ -> L.fresh t "o") kept_dims in
        let extents =
          List.map (fun d -> spec_extent vb d (List.nth specs d)) kept_dims
        in
        (* source index per dimension *)
        let src_idxs =
          List.mapi
            (fun d sp ->
              match sp with
              | SAt e -> e
              | SAll ->
                  let pos =
                    List.length (List.filter (fun x -> x < d) kept_dims)
                  in
                  Var (List.nth out_vars pos)
              | SGather g ->
                  let pos =
                    List.length (List.filter (fun x -> x < d) kept_dims)
                  in
                  MGetFlat (Var g, Var (List.nth out_vars pos)))
            specs
        in
        let src_off = flat_offset (dims_of vb rank) src_idxs in
        let dst_off =
          flat_offset extents (List.map (fun v -> Var v) out_vars)
        in
        let inner = [ MSetFlat (Var r, dst_off, MGetFlat (Var vb, src_off)) ] in
        let loops =
          List.fold_right2
            (fun v ext acc ->
              [ For { index = v; bound = ext; body = acc; prov = Some span } ])
            out_vars extents inner
        in
        let stmts =
          sb @ si
          @ [
              Site
                ( Sites.SliceAlias
                    { base = vb; slice = r; identity; safe; why; inplace; span },
                  Decl (CMat (out_elem, List.length kept_dims), r,
                    Some (MAlloc (out_elem, extents)))
                  :: loops );
            ]
        in
        L.add_pending t r;
        Some (stmts, Var r)
      end
  | _ -> None

let coerce_scalar (from_ty : T.ty) (to_elem : Nd.elem) e =
  match (from_ty, to_elem) with
  | T.TInt, Nd.EFloat -> Unop (FloatOfInt, e)
  | T.TFloat, Nd.EInt -> Unop (IntOfFloat, e)
  | _ -> e

let h_subscript_assign t (base : A.expr) (indices : A.index list)
    (rhs : A.expr) span : stmt list option =
  match ety base with
  | T.TMat (elem, rank) ->
      let sb, vb = lower_mat t base in
      let si, specs = lower_specs t vb (ety base) indices in
      let rhs_ty = ety rhs in
      let all_at = List.for_all (function SAt _ -> true | _ -> false) specs in
      if all_at then begin
        (* single-element store *)
        let idxs = List.map (function SAt e -> e | _ -> assert false) specs in
        let off = flat_offset (dims_of vb rank) idxs in
        let sr, er = L.lower_expr t rhs in
        let er = coerce_scalar rhs_ty elem er in
        Some (sb @ si @ sr @ [ MSetFlat (Var vb, off, er) ])
      end
      else begin
        let kept_dims =
          List.mapi (fun d sp -> (d, sp)) specs
          |> List.filter_map (fun (d, sp) ->
                 match sp with SAt _ -> None | _ -> Some d)
        in
        let out_vars = List.map (fun _ -> L.fresh t "o") kept_dims in
        let extents =
          List.map (fun d -> spec_extent vb d (List.nth specs d)) kept_dims
        in
        let src_idxs =
          List.mapi
            (fun d sp ->
              match sp with
              | SAt e -> e
              | SAll ->
                  let pos =
                    List.length (List.filter (fun x -> x < d) kept_dims)
                  in
                  Var (List.nth out_vars pos)
              | SGather g ->
                  let pos =
                    List.length (List.filter (fun x -> x < d) kept_dims)
                  in
                  MGetFlat (Var g, Var (List.nth out_vars pos)))
            specs
        in
        let dst_off = flat_offset (dims_of vb rank) src_idxs in
        match rhs_ty with
        | rt when T.is_scalar rt ->
            (* fill assignment *)
            let sr, er = L.lower_expr t rhs in
            let er = coerce_scalar rt elem er in
            let inner = [ MSetFlat (Var vb, dst_off, er) ] in
            let loops =
              List.fold_right2
                (fun v ext acc ->
              [ For { index = v; bound = ext; body = acc; prov = Some span } ])
                out_vars extents inner
            in
            Some (sb @ si @ sr @ loops)
        | T.TMat (relem, _) ->
            let sr, vr = lower_mat t rhs in
            let roff =
              flat_offset extents (List.map (fun v -> Var v) out_vars)
            in
            let inner =
              [
                MSetFlat
                  ( Var vb,
                    dst_off,
                    conv ~from:relem ~to_:elem (MGetFlat (Var vr, roff)) );
              ]
            in
            let loops =
              List.fold_right2
                (fun v ext acc ->
              [ For { index = v; bound = ext; body = acc; prov = Some span } ])
                out_vars extents inner
            in
            Some (sb @ si @ sr @ loops)
        | ty ->
            span_err span "cannot assign %s into a matrix region"
              (T.to_string ty)
      end
  | _ -> None

(* --- with-loops (§III-A4, the Fig 1 → Fig 3 translation) ---------------------- *)

(* Normalise one generator dimension to a 0-based canonical loop:
   returns (loop binder, start expr).  When the start is statically 0 the
   loop variable IS the generator id — which is what lets the programmer
   name it in a §V transform script ("parallelize i"). *)
let gen_loop_var t (id : string) (start : expr) :
    [ `Direct of string | `Shifted of string * string * expr ] =
  match fold_expr start with
  | Int 0 -> `Direct id
  | s -> `Shifted (id, L.fresh t ("g" ^ id), s)

let lower_generator t (gen : Nodes.generator) :
    stmt list * (string * expr * stmt list) list * expr list =
  (* Per dimension: (loop index var, trip count, body prelude binding the
     generator id); plus the actual-index expression list. *)
  let lower_bound b = bind_scalar t (L.lower_expr t b) T.TInt in
  let prelude = ref [] in
  let dims =
    List.map2
      (fun id (lo, hi) ->
        let slo, elo = lower_bound lo in
        let shi, ehi = lower_bound hi in
        prelude := !prelude @ slo @ shi;
        let start =
          match gen.Nodes.lo_rel with
          | Nodes.RLe -> elo
          | Nodes.RLt -> fold_expr (elo +: Int 1)
        in
        let stop =
          match gen.Nodes.hi_rel with
          | Nodes.RLt -> ehi
          | Nodes.RLe -> fold_expr (ehi +: Int 1)
        in
        let count = fold_expr (stop -: start) in
        match gen_loop_var t id start with
        | `Direct v -> (id, v, count, [])
        | `Shifted (id, v, s) ->
            (id, v, count, [ Decl (CInt, id, Some (Var v +: s)) ]))
      gen.Nodes.ids
      (List.combine gen.Nodes.lo gen.Nodes.hi)
  in
  let loops =
    List.map (fun (_, v, count, binds) -> (v, count, binds)) dims
  in
  let actual = List.map (fun (id, _, _, _) -> Var id) dims in
  (!prelude, loops, actual)

(* Wrap [inner] in the generator loop nest — always sequential [For]s;
   the auto-par pass promotes the outermost loop of a [`[For l]`]-shaped
   nest to a ParFor region (§III-C) when enabled. *)
let build_nest ?prov loops inner =
  let rec go = function
    | [] -> inner
    | (v, count, binds) :: rest ->
        [ For { index = v; bound = count; body = binds @ go rest; prov } ]
  in
  go loops

let lower_with t (gen : Nodes.generator) (op : Nodes.operation) (rty : T.ty)
    span : stmt list * expr =
  let prelude, loops, actual = lower_generator t gen in
  match op with
  | Nodes.OGenarray (shape, body) ->
      let out_elem, out_rank = (match rty with
        | T.TMat (e, r) -> (e, r)
        | _ -> (Nd.EFloat, List.length shape))
      in
      let sshape, eshape =
        List.fold_left
          (fun (ss, es) d ->
            let s, e = bind_scalar t (L.lower_expr t d) T.TInt in
            (ss @ s, es @ [ e ]))
          ([], []) shape
      in
      let r = L.fresh t "gen" in
      let sbody, ebody = L.lower_expr t body in
      let ebody =
        match (ety body, out_elem) with
        | T.TInt, Nd.EFloat -> Unop (FloatOfInt, ebody)
        | _ -> ebody
      in
      let inner = sbody @ [ MSetFlat (Var r, flat_offset eshape actual, ebody) ] in
      let nest = build_nest ~prov:span loops inner in
      let nest =
        [ Site (Sites.AutoPar { kind = Sites.WithGen; span }, nest) ]
      in
      let stmts =
        prelude @ sshape
        @ (Decl (CMat (out_elem, out_rank), r, Some (MAlloc (out_elem, eshape)))
          :: nest)
      in
      (* Library-style baseline (§III-A5): "a library implementation
         would likely evaluate the result of the with-loops into a
         temporary variable which is then copied" — materialise that
         extra copy inside a [FuseCopy] site.  The fusion pass deletes it
         (feeding the result to its consumer directly); when fusion is
         off the splice IS the library-style benchmark baseline. *)
      let cpy = L.fresh t "libcpy" and i = L.fresh t "i" in
      let copy_stmts =
        [
          Comment "library-style result copy (fusion disabled)";
          Decl
            ( CMat (out_elem, out_rank),
              cpy,
              Some (MAlloc (out_elem, dims_of r out_rank)) );
          For
            {
              index = i;
              bound = MSize (Var r);
              body = [ MSetFlat (Var cpy, Var i, MGetFlat (Var r, Var i)) ];
              prov = Some span;
            };
        ]
        @ L.rc_dec t (Var r)
      in
      L.add_pending t cpy;
      ( stmts
        @ [ Site (Sites.FuseCopy { result = r; copy = cpy; span }, copy_stmts) ],
        Var cpy )
  | Nodes.OFold (fop, base, body) ->
      let acc_ty = match rty with T.TFloat -> CFloat | T.TBool -> CBool | _ -> CInt in
      let acc = L.fresh t "acc" in
      let sbase, ebase = L.lower_expr t base in
      let ebase =
        match (ety base, rty) with
        | T.TInt, T.TFloat -> Unop (FloatOfInt, ebase)
        | _ -> ebase
      in
      let sbody, ebody = L.lower_expr t body in
      let ebody =
        match (ety body, rty) with
        | T.TInt, T.TFloat -> Unop (FloatOfInt, ebody)
        | _ -> ebody
      in
      let update =
        match fop with
        | Nodes.FPlus -> [ Assign (LVar acc, Var acc +: ebody) ]
        | Nodes.FTimes -> [ Assign (LVar acc, Var acc *: ebody) ]
        | Nodes.FMin ->
            let v = L.fresh t "v" in
            [
              Decl (acc_ty, v, Some ebody);
              If (Var v <: Var acc, [ Assign (LVar acc, Var v) ], []);
            ]
        | Nodes.FMax ->
            let v = L.fresh t "v" in
            [
              Decl (acc_ty, v, Some ebody);
              If (Var acc <: Var v, [ Assign (LVar acc, Var v) ], []);
            ]
      in
      let inner = sbody @ update in
      (* folds stay sequential inside each genarray element (Fig 3): the
         auto-par pass never promotes a FoldAcc site — iterations race on
         the accumulator — but still owns the remark. *)
      let nest = build_nest ~prov:span loops inner in
      let nest = [ Site (Sites.AutoPar { kind = Sites.FoldAcc; span }, nest) ] in
      ( prelude @ sbase @ (Decl (acc_ty, acc, Some ebase) :: nest),
        Var acc )

(* --- matrixMap (§III-A5) -------------------------------------------------------- *)

let lower_matrix_map t (fname : string) (marg : A.expr) (dims : int list)
    (rty : T.ty) span : stmt list * expr =
  let in_elem, rank = mat_of_ty span (ety marg) in
  let out_elem, _ = mat_of_ty span rty in
  let k = List.length dims in
  let comp = List.filter (fun d -> not (List.mem d dims)) (List.init rank Fun.id) in
  let sm, vm = lower_mat t marg in
  let r = L.fresh t "mmapr" in
  (* The lifted per-slice function: "we actually lift this out into a new
     function so that the spawned threads can get direct access to it". *)
  let lifted = L.fresh t ("mmap_" ^ fname) in
  let lf =
    let m = "m" and out = "r" and tvar = "t" in
    let decode =
      (* recover the complement indices from the flattened counter *)
      let rem = L.fresh t "rem" in
      Decl (CInt, rem, Some (Var tvar))
      :: List.concat_map
           (fun d ->
             let ix = Printf.sprintf "c%d" d in
             [
               Decl (CInt, ix, Some (Binop (Arith S.Mod, Var rem, MDim (Var m, Int d))));
               Assign (LVar rem, Var rem /: MDim (Var m, Int d));
             ])
           (List.rev comp)
    in
    let slice = L.fresh t "slice" in
    let ovars = List.map (fun d -> Printf.sprintf "o%d" d) dims in
    let slice_extents = List.map (fun d -> MDim (Var m, Int d)) dims in
    let full_index =
      List.init rank (fun d ->
          if List.mem d dims then
            Var (Printf.sprintf "o%d" d)
          else Var (Printf.sprintf "c%d" d))
    in
    let src_off = flat_offset (dims_of m rank) full_index in
    let slice_off =
      flat_offset slice_extents (List.map (fun v -> Var v) ovars)
    in
    let extract =
      List.fold_right2
        (fun v ext acc ->
              [ For { index = v; bound = ext; body = acc; prov = Some span } ])
        ovars slice_extents
        [ MSetFlat (Var slice, slice_off, MGetFlat (Var m, src_off)) ]
    in
    let outv = L.fresh t "out" in
    let writeback =
      List.fold_right2
        (fun v ext acc ->
              [ For { index = v; bound = ext; body = acc; prov = Some span } ])
        ovars slice_extents
        [ MSetFlat (Var out, src_off, MGetFlat (Var outv, slice_off)) ]
    in
    {
      f_name = lifted;
      f_params =
        [
          (CMat (in_elem, rank), m);
          (CMat (out_elem, rank), out);
          (CInt, tvar);
        ];
      f_ret = CVoid;
      f_body =
        decode
        @ [
            Decl
              ( CMat (in_elem, k),
                slice,
                Some (MAlloc (in_elem, slice_extents)) );
          ]
        @ extract
        @ [ Decl (CMat (out_elem, k), outv, Some (Call (fname, [ Var slice ]))) ]
        @ writeback
        @ L.rc_dec t (Var slice)
        @ L.rc_dec t (Var outv)
        @ [ Return None ];
      f_span = None;
      f_origin = Some t.L.cur_fname;
    }
  in
  t.L.extra_funcs <- lf :: t.L.extra_funcs;
  let total = L.fresh t "total" in
  let total_expr =
    List.fold_left (fun acc d -> acc *: MDim (Var vm, Int d)) (Int 1) comp
    |> fold_expr
  in
  let tt = L.fresh t "t" in
  let loop =
    {
      index = tt;
      bound = Var total;
      body = [ ExprS (Call (lifted, [ Var vm; Var r; Var tt ])) ];
      prov = Some span;
    }
  in
  let stmts =
    sm
    @ [
        Decl (CMat (out_elem, rank), r, Some (MAlloc (out_elem, dims_of vm rank)));
        Decl (CInt, total, Some total_expr);
        Site (Sites.AutoPar { kind = Sites.MatrixMap fname; span }, [ For loop ]);
      ]
  in
  L.add_pending t r;
  (stmts, Var r)

(* --- extension expressions and builtins --------------------------------------- *)

let h_ty _t (ext : A.ext_ty) : T.ty option =
  match ext with
  | Nodes.TyMatrix (elem_te, rank) ->
      let elem =
        match elem_te with
        | A.TyInt -> Nd.EInt
        | A.TyFloat -> Nd.EFloat
        | A.TyBool -> Nd.EBool
        | _ -> Nd.EInt
      in
      Some (T.TMat (elem, rank))
  | _ -> None

let h_expr t (ext : A.ext_expr) (rty : T.ty) span : (stmt list * expr) option =
  match ext with
  | Nodes.EEnd -> (
      match !index_ctx with
      | Some (m, d) -> Some ([], fold_expr (MDim (m, Int d) -: Int 1))
      | None -> span_err span "'end' outside of a subscript")
  | Nodes.EInit (_, dims) ->
      let elem, _rank = mat_of_ty span rty in
      let sdims, edims =
        List.fold_left
          (fun (ss, es) d ->
            let s, e = L.lower_expr t d in
            (ss @ s, es @ [ e ]))
          ([], []) dims
      in
      let tmp = L.fresh t "initm" in
      L.add_pending t tmp;
      Some
        ( sdims @ [ Decl (T.to_ctype rty, tmp, Some (MAlloc (elem, edims))) ],
          Var tmp )
  | Nodes.EWith (gen, op) -> Some (lower_with t gen op rty span)
  | Nodes.EMatrixMap (fname, m, dims) ->
      Some (lower_matrix_map t fname m dims rty span)
  | _ -> None

let h_call t (name : string) (args : A.expr list) (rty : T.ty) _span
    ~expected:_ : (stmt list * expr) option =
  match (name, args) with
  | "dimSize", [ m; d ] ->
      let sm, vm = lower_mat t m in
      let sd, ed = L.lower_expr t d in
      Some (sm @ sd, MDim (Var vm, ed))
  | "readMatrix", [ { A.e = A.StrLit path; _ } ] ->
      let tmp = L.fresh t "rd" in
      L.add_pending t tmp;
      Some
        ( [ Decl (T.to_ctype rty, tmp, Some (MRead (Str path))) ],
          Var tmp )
  | "readMatrix", _ -> None
  | "writeMatrix", [ { A.e = A.StrLit path; _ }; m ] ->
      let sm, vm = lower_mat t m in
      Some (sm @ [ MWrite (Str path, Var vm) ], Int 0)
  | _ -> None

(** The matrix-processing language extension (§III) packaged for the
    driver: concrete syntax, tree→AST builders, semantic analysis hooks,
    lowering hooks, the CIR optimization passes, and AG-spec metadata for
    the modular well-definedness analysis. *)

let name = Syntax.name
let grammar = Syntax.grammar
let register = Syntax.register
let check_hooks : Cminus.Check.hooks = Check.hooks

let lower_hooks : Cminus.Lower.hooks =
  {
    (Cminus.Lower.no_hooks name) with
    Cminus.Lower.l_ty = (fun t ext -> Lower.h_ty t ext);
    l_expr = (fun t ext rty span -> Lower.h_expr t ext rty span);
    l_binop = (fun t op a b rty span -> Lower.h_binop t op a b rty span);
    l_unop = (fun t op a rty span -> Lower.h_unop t op a rty span);
    l_call =
      (fun t fname args rty span ~expected ->
        Lower.h_call t fname args rty span ~expected);
    l_subscript =
      (fun t base ixs rty span -> Lower.h_subscript t base ixs rty span);
    l_subscript_assign =
      (fun t base ixs rhs span -> Lower.h_subscript_assign t base ixs rhs span);
  }

(** CIR passes, in default pipeline order: fuse, copy-elim, auto-par. *)
let passes = Passes.all

(** AG-spec metadata: every production defines the host's [errors] and
    [type] attributes and forwards for its translation, the pattern that
    passes the modular well-definedness analysis (§VI-B). *)
let ag_spec : Ag.Wellformed.spec =
  let fp = Ag.Wellformed.full_prod ~owner:name in
  {
    sp_name = name;
    attrs = [];
    prods =
      [
        fp ~lhs:"TypeE" ~children:[ "ScalarType" ]
          ~defines:[ "errors"; "type" ] ~forwards:false "mty";
        fp ~lhs:"Index" ~children:[] ~defines:[ "errors"; "type" ] "ix_all";
        fp ~lhs:"Primary" ~children:[] ~defines:[ "errors"; "type" ]
          ~forwards:true "prim_end";
        fp ~lhs:"Cmp" ~children:[ "Add"; "Add" ]
          ~defines:[ "errors"; "type" ] ~forwards:true "cmp_range";
        fp ~lhs:"Mul" ~children:[ "Mul"; "Unary" ]
          ~defines:[ "errors"; "type" ] ~forwards:true "mul_dotstar";
        fp ~lhs:"Primary" ~children:[ "WGen"; "WOp" ]
          ~defines:[ "errors"; "type" ] ~forwards:true "prim_with";
        fp ~lhs:"WGen"
          ~children:[ "ArgList"; "WRel"; "WIdList"; "WRel"; "ArgList" ]
          ~defines:[ "errors" ] "wgen";
        fp ~lhs:"WRel" ~children:[] ~defines:[ "errors" ] "wrel_lt";
        fp ~lhs:"WRel" ~children:[] ~defines:[ "errors" ] "wrel_le";
        fp ~lhs:"WIdList" ~children:[] ~defines:[ "errors" ] "wid_one";
        fp ~lhs:"WIdList" ~children:[ "WIdList" ] ~defines:[ "errors" ]
          "wid_cons";
        fp ~lhs:"WOp" ~children:[ "ArgList"; "E" ] ~defines:[ "errors" ]
          "wop_genarray";
        fp ~lhs:"WOp" ~children:[ "FoldOp"; "E"; "E" ] ~defines:[ "errors" ]
          "wop_fold";
        fp ~lhs:"FoldOp" ~children:[] ~defines:[ "errors" ] "foldop_plus";
        fp ~lhs:"FoldOp" ~children:[] ~defines:[ "errors" ] "foldop_times";
        fp ~lhs:"FoldOp" ~children:[] ~defines:[ "errors" ] "foldop_min";
        fp ~lhs:"FoldOp" ~children:[] ~defines:[ "errors" ] "foldop_max";
        fp ~lhs:"Primary" ~children:[ "E"; "ArgList" ]
          ~defines:[ "errors"; "type" ] ~forwards:true "prim_mmap";
        fp ~lhs:"Primary" ~children:[ "TypeE"; "ArgList" ]
          ~defines:[ "errors"; "type" ] ~forwards:true "prim_init";
      ];
  }

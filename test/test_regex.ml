(* Unit and property tests for the POSIX-ERE engine.

   The property tests check the NFA simulation against a naive
   backtracking matcher over random patterns and subjects. *)

module Regex = Ppfx_regex.Regex
module Syntax = Ppfx_regex.Syntax

let check_search pattern subject expected () =
  let re = Regex.compile pattern in
  Alcotest.(check bool)
    (Printf.sprintf "search %S %S" pattern subject)
    expected (Regex.search re subject)

let check_matches pattern subject expected () =
  let re = Regex.compile pattern in
  Alcotest.(check bool)
    (Printf.sprintf "matches %S %S" pattern subject)
    expected (Regex.matches re subject)

let literal_tests =
  [
    "literal found", check_search "abc" "xxabcxx" true;
    "literal missing", check_search "abc" "xxabxcx" false;
    "empty pattern", check_search "" "anything" true;
    "empty subject no match", check_search "a" "" false;
    "empty subject empty pattern", check_search "" "" true;
    "case sensitive", check_search "ABC" "abc" false;
  ]

let metachar_tests =
  [
    "dot matches any", check_search "a.c" "abc" true;
    "dot needs a char", check_matches "a.c" "ac" false;
    "star zero", check_matches "ab*c" "ac" true;
    "star many", check_matches "ab*c" "abbbbc" true;
    "plus needs one", check_matches "ab+c" "ac" false;
    "plus many", check_matches "ab+c" "abbc" true;
    "opt present", check_matches "ab?c" "abc" true;
    "opt absent", check_matches "ab?c" "ac" true;
    "opt not two", check_matches "ab?c" "abbc" false;
    "alt left", check_matches "ab|cd" "ab" true;
    "alt right", check_matches "ab|cd" "cd" true;
    "alt neither", check_matches "ab|cd" "ad" false;
    "group star", check_matches "(ab)*" "ababab" true;
    "group star empty", check_matches "(ab)*" "" true;
    "nested groups", check_matches "((a|b)c)+" "acbc" true;
    "escaped dot", check_matches "a\\.c" "a.c" true;
    "escaped dot literal", check_matches "a\\.c" "abc" false;
    "escaped star", check_search "a\\*" "xa*y" true;
    "escaped slash irrelevant", check_matches "a/b" "a/b" true;
  ]

let class_tests =
  [
    "simple class", check_matches "[abc]" "b" true;
    "class miss", check_matches "[abc]" "d" false;
    "range", check_matches "[a-z]+" "hello" true;
    "range miss", check_matches "[a-z]+" "Hello" false;
    "negated", check_matches "[^/]+" "abc" true;
    "negated miss", check_matches "[^/]+" "a/c" false;
    "class with dash member", check_matches "[a-]" "-" true;
    "leading bracket member", check_matches "[]a]" "]" true;
    "multiple ranges", check_matches "[a-zA-Z0-9]+" "Az09" true;
  ]

let anchor_tests =
  [
    "bol anchored hit", check_search "^abc" "abcdef" true;
    "bol anchored miss", check_search "^abc" "xabc" false;
    "eol anchored hit", check_search "abc$" "xxabc" true;
    "eol anchored miss", check_search "abc$" "abcx" false;
    "both anchors", check_search "^abc$" "abc" true;
    "both anchors miss", check_search "^abc$" "abcd" false;
    "unanchored search mid", check_search "b.d" "abode abcd" true;
  ]

let repeat_tests =
  [
    "exact count hit", check_matches "a{3}" "aaa" true;
    "exact count under", check_matches "a{3}" "aa" false;
    "exact count over", check_matches "a{3}" "aaaa" false;
    "lo only", check_matches "a{2,}" "aaaaa" true;
    "lo only under", check_matches "a{2,}" "a" false;
    "lo hi", check_matches "a{1,3}" "aa" true;
    "lo hi over", check_matches "a{1,3}" "aaaa" false;
    "group repeat", check_matches "(ab){2}" "abab" true;
  ]

(* The regexes of paper Table 1. *)
let paper_table1_tests =
  let path_re = "^.*/B/C$" in
  let t1 = [
    ("//B/C on /A/B/C", path_re, "/A/B/C", true);
    ("//B/C on /A/B/C/D", path_re, "/A/B/C/D", false);
    ("//B/C on /B/C", path_re, "/B/C", true);
    ("/A/B//F hit deep", "^/A/B/(.+/)?F$", "/A/B/C/E/F", true);
    ("/A/B//F hit direct", "^/A/B/(.+/)?F$", "/A/B/F", true);
    ("/A/B//F miss", "^/A/B/(.+/)?F$", "/A/C/F", false);
    ("//C/*/F hit", "^.*/C/[^/]+/F$", "/A/B/C/E/F", true);
    ("//C/*/F miss two levels", "^.*/C/[^/]+/F$", "/A/B/C/D/E/F", false);
    ("backward path", "^.*/A/B/(.+/)?F$", "/A/B/C/E/F", true);
  ]
  in
  List.map
    (fun (name, pattern, subject, expected) -> name, check_search pattern subject expected)
    t1

let parse_error_tests =
  let expect_error pattern () =
    match Regex.compile pattern with
    | _ -> Alcotest.failf "expected parse error for %S" pattern
    | exception Regex.Parse_error _ -> ()
  in
  [
    "unbalanced paren", expect_error "(ab";
    "stray close paren", expect_error "ab)";
    "dangling star", expect_error "*a";
    "dangling backslash", expect_error "ab\\";
    "unterminated class", expect_error "[abc";
    "bad bounds order", expect_error "a{3,1}";
    "bad range order", expect_error "[z-a]";
  ]

(* Naive exponential-time oracle used by the qcheck property. *)
let rec naive_match (r : Syntax.t) (s : string) (i : int) (k : int -> bool) : bool =
  let n = String.length s in
  match r with
  | Syntax.Empty -> k i
  | Syntax.Char c -> i < n && Char.equal s.[i] c && k (i + 1)
  | Syntax.Any -> i < n && k (i + 1)
  | Syntax.Class (neg, items) ->
    i < n
    &&
    let c = s.[i] in
    let hit =
      List.exists
        (function
          | Syntax.Single x -> Char.equal x c
          | Syntax.Range (a, z) -> a <= c && c <= z)
        items
    in
    (if neg then not hit else hit) && k (i + 1)
  | Syntax.Seq (a, b) -> naive_match a s i (fun j -> naive_match b s j k)
  | Syntax.Alt (a, b) -> naive_match a s i k || naive_match b s i k
  | Syntax.Star a ->
    let rec loop i seen =
      k i
      || naive_match a s i (fun j -> (not (List.mem j seen)) && loop j (j :: seen))
    in
    loop i [ i ]
  | Syntax.Plus a -> naive_match (Syntax.Seq (a, Syntax.Star a)) s i k
  | Syntax.Opt a -> k i || naive_match a s i k
  | Syntax.Repeat (a, lo, hi) ->
    let rec mand cnt i =
      if cnt = 0 then opt (match hi with None -> -1 | Some h -> h - lo) i
      else naive_match a s i (fun j -> mand (cnt - 1) j)
    and opt budget i =
      if budget = 0 then k i
      else
        k i
        || naive_match a s i (fun j ->
               if j = i then k i else opt (if budget < 0 then budget else budget - 1) j)
    in
    mand lo i
  | Syntax.Bol -> i = 0 && k i
  | Syntax.Eol -> i = n && k i

let naive_search r s =
  let n = String.length s in
  let rec try_at i = i <= n && (naive_match r s i (fun _ -> true) || try_at (i + 1)) in
  try_at 0

(* Random pattern ASTs kept small so the naive oracle stays fast. Leaves
   include both anchors and bracket expressions with ranges and several
   items, so the DFA's anchored kernels and byte-class merging meet the
   oracle too. *)
let gen_regex =
  let open QCheck.Gen in
  let gen_char = map (fun i -> Char.chr (97 + i)) (int_bound 3) in
  let gen_item =
    oneof
      [
        map (fun c -> Syntax.Single c) gen_char;
        map2
          (fun a b -> if a <= b then Syntax.Range (a, b) else Syntax.Range (b, a))
          gen_char gen_char;
      ]
  in
  let gen_class =
    map2 (fun neg items -> Syntax.Class (neg, items)) bool (list_size (int_range 1 3) gen_item)
  in
  sized_size (int_bound 8) @@ fix (fun self n ->
      if n <= 0 then
        frequency
          [
            (3, map (fun c -> Syntax.Char c) gen_char);
            (1, return Syntax.Any);
            (1, return Syntax.Empty);
            (2, gen_class);
            (1, return Syntax.Bol);
            (1, return Syntax.Eol);
          ]
      else
        oneof
          [
            map2 (fun a b -> Syntax.Seq (a, b)) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> Syntax.Alt (a, b)) (self (n / 2)) (self (n / 2));
            map (fun a -> Syntax.Star a) (self (n - 1));
            map (fun a -> Syntax.Plus a) (self (n - 1));
            map (fun a -> Syntax.Opt a) (self (n - 1));
            map (fun c -> Syntax.Char c) gen_char;
          ])

(* Mostly the pattern alphabet [a-d], with some bytes no pattern names:
   these land in the catch-all byte class. *)
let gen_subject =
  QCheck.Gen.(
    string_size
      ~gen:
        (frequency
           [
             (8, map (fun i -> Char.chr (97 + i)) (int_bound 3));
             (1, oneofl [ '/'; 'z'; '\000'; '\255' ]);
           ])
      (int_bound 10))

let prop_nfa_vs_naive =
  QCheck.Test.make ~count:2000 ~name:"NFA search agrees with backtracking oracle"
    (QCheck.make
       ~print:(fun (r, s) -> Printf.sprintf "pattern %s subject %S" (Syntax.to_string r) s)
       (QCheck.Gen.pair gen_regex gen_subject))
    (fun (r, s) ->
      let via_nfa =
        let re = Regex.compile (Syntax.to_string r) in
        Regex.search re s
      in
      via_nfa = naive_search r s)

let prop_print_parse_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"print/parse round-trip"
    (QCheck.make ~print:Syntax.to_string gen_regex)
    (fun r ->
      let printed = Syntax.to_string r in
      let reparsed = Regex.ast (Regex.compile printed) in
      (* Round-tripping may rebalance Seq/Alt nesting; compare by observable
         behaviour on a deterministic set of subjects. *)
      let subjects = [ ""; "a"; "b"; "ab"; "ba"; "aab"; "abab"; "bbb"; "aaba" ] in
      List.for_all (fun s -> naive_search r s = naive_search reparsed s) subjects)

let prop_quote_literal =
  QCheck.Test.make ~count:500 ~name:"quote makes any string match itself"
    QCheck.(string_of_size (QCheck.Gen.int_bound 20))
    (fun s ->
      (* Exclude newline oddities: our subjects are path strings. *)
      let re = Regex.compile ("^" ^ Regex.quote s ^ "$") in
      Regex.search re s)

(* ------------------------------------------------------------------ *)
(* Shared compile cache                                                *)
(* ------------------------------------------------------------------ *)

let cache_tests =
  [
    ( "hit and miss accounting",
      fun () ->
        Regex.cache_clear ();
        let a = Regex.compile_cached "^/(.+/)?keyword$" in
        let b = Regex.compile_cached "^/(.+/)?keyword$" in
        let c = Regex.compile_cached "^/site(/.+)?$" in
        Alcotest.(check int) "misses" 2 (Regex.cache_misses ());
        Alcotest.(check int) "hits" 1 (Regex.cache_hits ());
        Alcotest.(check int) "size" 2 (Regex.cache_size ());
        Alcotest.(check bool) "same behaviour" true
          (Regex.search a "/a/keyword" && Regex.search b "/a/keyword"
          && Regex.search c "/site/x") );
    ( "cached handles are independent",
      fun () ->
        Regex.cache_clear ();
        (* Each call returns a fresh handle (private lazy-DFA state), so a
           handle can be used while another for the same pattern is mid-
           search on a different domain. Equality of observable behaviour
           with an uncached compile is the contract. *)
        let cached = Regex.compile_cached "^/a/(.+/)?b$" in
        let plain = Regex.compile "^/a/(.+/)?b$" in
        List.iter
          (fun s ->
            Alcotest.(check bool) s (Regex.search plain s) (Regex.search cached s))
          [ "/a/b"; "/a/x/b"; "/a/x/y/b"; "/b"; "/a/bc"; "" ] );
    ( "parse errors are not cached",
      fun () ->
        Regex.cache_clear ();
        (match Regex.compile_cached "(" with
        | exception Regex.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected Parse_error");
        Alcotest.(check int) "size unchanged" 0 (Regex.cache_size ());
        (* and the error is deterministic on retry *)
        (match Regex.compile_cached "(" with
        | exception Regex.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected Parse_error again") );
    ( "clear resets counters",
      fun () ->
        Regex.cache_clear ();
        ignore (Regex.compile_cached "abc");
        ignore (Regex.compile_cached "abc");
        Regex.cache_clear ();
        Alcotest.(check int) "hits" 0 (Regex.cache_hits ());
        Alcotest.(check int) "misses" 0 (Regex.cache_misses ());
        Alcotest.(check int) "size" 0 (Regex.cache_size ()) );
    ( "concurrent domains share the cache safely",
      fun () ->
        Regex.cache_clear ();
        let patterns =
          [| "^/(.+/)?keyword$"; "^/site(/.+)?$"; "^/a/(.+/)?b$"; "abc" |]
        in
        let subject = "/site/regions/item/keyword" in
        let expected = Array.map (fun p -> Regex.search (Regex.compile p) subject) patterns in
        let worker () =
          for i = 0 to 99 do
            let j = i mod Array.length patterns in
            let re = Regex.compile_cached patterns.(j) in
            assert (Regex.search re subject = expected.(j))
          done
        in
        let domains = List.init 4 (fun _ -> Domain.spawn worker) in
        List.iter Domain.join domains;
        Alcotest.(check int) "only one miss per pattern"
          (Array.length patterns) (Regex.cache_misses ());
        Alcotest.(check int) "size" (Array.length patterns) (Regex.cache_size ()) );
  ]

(* ------------------------------------------------------------------ *)
(* Frozen DFAs and required-literal extraction                         *)
(* ------------------------------------------------------------------ *)

let frozen_tests =
  [
    ( "compile_cached handles are frozen",
      fun () ->
        Regex.cache_clear ();
        let re = Regex.compile_cached "^/(.+/)?keyword$" in
        Alcotest.(check bool) "frozen" true (Regex.has_frozen re);
        Alcotest.(check bool) "lazy compile is not" false
          (Regex.has_frozen (Regex.compile "^/(.+/)?keyword$")) );
    ( "frozen agrees with lazy on paper paths",
      fun () ->
        Regex.cache_clear ();
        List.iter
          (fun (pattern, subject) ->
            let frozen = Regex.compile_cached pattern in
            let lazy_ = Regex.compile pattern in
            Alcotest.(check bool)
              (Printf.sprintf "search %S %S" pattern subject)
              (Regex.search lazy_ subject)
              (Regex.search frozen subject);
            Alcotest.(check bool)
              (Printf.sprintf "matches %S %S" pattern subject)
              (Regex.matches lazy_ subject)
              (Regex.matches frozen subject))
          [
            ("^.*/listitem(/.+)?/keyword$", "/site/listitem/keyword");
            ("^.*/listitem(/.+)?/keyword$", "/site/listitem/x/keyword");
            ("^.*/listitem(/.+)?/keyword$", "/keyword");
            ("^/(.+/)?keyword$", "/a/b/keyword");
            ("france", "in france today");
            ("^mailto:1", "mailto:1@example.org");
            ("^mailto:1", "xmailto:1");
            ("a{2,3}", "aaa");
            ("", "");
          ] );
    ( "freeze state counts are pinned",
      fun () ->
        (* Deterministic compile work: states of both variants, straight
           from [Dfa.freeze]. The search variant of an anchored pattern
           reseeds only epsilon states, so it must not outgrow the match
           variant. *)
        let freeze pattern ~reseed =
          let nfa = Ppfx_regex.Nfa.build (Ppfx_regex.Parse.parse pattern) in
          match Ppfx_regex.Dfa.freeze nfa ~reseed ~max_states:4096 with
          | Some f -> Ppfx_regex.Dfa.frozen_states f
          | None -> Alcotest.failf "%S did not freeze" pattern
        in
        let q2 =
          "^/site/closed_auctions/closed_auction/annotation/description/parlist/\
           listitem/text/keyword$"
        in
        let q2_search = freeze q2 ~reseed:true and q2_match = freeze q2 ~reseed:false in
        Alcotest.(check int) "Q2 search = match" q2_match q2_search;
        Alcotest.(check bool)
          (Printf.sprintf "Q2 states %d <= 93" q2_search)
          true (q2_search <= 93);
        List.iter
          (fun (pattern, expected) ->
            Alcotest.(check int) (pattern ^ " search") expected (freeze pattern ~reseed:true);
            Alcotest.(check int) (pattern ^ " match") expected (freeze pattern ~reseed:false))
          [ ("^/(.+/)?keyword$", 12); ("^.*/listitem(/.+)?/keyword$", 29) ] );
    ( "freeze cap is exact",
      fun () ->
        let nfa = Ppfx_regex.Nfa.build (Ppfx_regex.Parse.parse "^/(.+/)?keyword$") in
        let frozen max_states =
          Option.is_some (Ppfx_regex.Dfa.freeze nfa ~reseed:false ~max_states)
        in
        Alcotest.(check bool) "fits at its own size" true (frozen 12);
        Alcotest.(check bool) "one state short" false (frozen 11) );
    ( "over-cap pattern falls back to the lazy DFA",
      fun () ->
        Regex.cache_clear ();
        (* The 13th symbol from the end must be an [a]: the DFA needs
           2^13 states, past the 4096 cap. *)
        let pattern = "(a|b)*a(a|b){12}" in
        let re = Regex.compile_cached pattern in
        Alcotest.(check bool) "not frozen" false (Regex.has_frozen re);
        let r = Regex.ast re in
        let subjects =
          [ ""; "a"; "aaaaaaaaaaaaa"; "abbbbbbbbbbbb"; "babbbbbbbbbbbb"; "bbbbbbbbbbbbb";
            "abbbbbbbbbbbbb"; "xabababababababx"; "bbbbabbbbbbbbbbbb" ]
        in
        List.iter
          (fun s ->
            Alcotest.(check bool) ("search " ^ s) (naive_search r s) (Regex.search re s);
            Alcotest.(check bool) ("matches " ^ s)
              (naive_match r s 0 (fun j -> j = String.length s))
              (Regex.matches re s))
          subjects );
  ]

(* Frozen execution must be byte-for-byte equivalent to both the lazy DFA
   and the backtracking oracle on arbitrary patterns. *)
let prop_frozen_vs_lazy_vs_naive =
  QCheck.Test.make ~count:2000
    ~name:"frozen DFA agrees with lazy DFA and backtracking oracle"
    (QCheck.make
       ~print:(fun (r, s) -> Printf.sprintf "pattern %s subject %S" (Syntax.to_string r) s)
       (QCheck.Gen.pair gen_regex gen_subject))
    (fun (r, s) ->
      let pattern = Syntax.to_string r in
      let frozen = Regex.compile_cached pattern in
      let lazy_ = Regex.compile pattern in
      Regex.search frozen s = naive_search r s
      && Regex.search frozen s = Regex.search lazy_ s
      && Regex.matches frozen s = Regex.matches lazy_ s)

let check_literals pattern expected () =
  let got = Regex.required_literals (Regex.compile pattern) in
  Alcotest.(check (list (list string)))
    (Printf.sprintf "required_literals %S" pattern)
    (List.sort compare expected) (List.sort compare got)

let literal_extraction_tests =
  [
    (* The two regexes Q6's path filters compile to. *)
    "Q6 descendant filter", check_literals "^/(.+/)?keyword$" [ [ "keyword" ] ];
    ( "Q6 ancestor filter",
      check_literals "^.*/listitem(/.+)?/keyword$"
        [ [ "/listitem" ]; [ "/keyword" ] ] );
    (* XE1 contains() / XE2 starts-with() value predicates. *)
    "bare literal", check_literals "france" [ [ "france" ] ];
    "anchored prefix", check_literals "^mailto:1" [ [ "mailto:1" ] ];
    (* Alternation: union within a group. *)
    "alt of literals", check_literals "abcd|efgh" [ [ "abcd"; "efgh" ] ];
    ( "alt inside seq",
      check_literals "xx(abcd|efgh)yy" [ [ "xxabcdyy"; "xxefghyy" ] ] );
    (* Nothing required. *)
    "dot star", check_literals ".*" [];
    "short runs dropped", check_literals "^a.b$" [];
    "opt group not required", check_literals "(abcd)?" [];
    (* Plus / bounded repeat force one copy. *)
    "plus required", check_literals "(abcd)+" [ [ "abcd" ] ];
    "repeat required", check_literals "(abcd){2,3}" [ [ "abcd" ] ];
    "repeat zero not required", check_literals "(abcd){0,3}" [];
    (* Classes break runs but keep both sides. *)
    ( "class splits runs",
      check_literals "abcd[0-9]efgh" [ [ "abcd" ]; [ "efgh" ] ] );
  ]

(* Soundness: every extracted group is truly required — whenever the
   pattern accepts a subject, each group has an alternative occurring as
   a substring. Checked against random pattern/subject pairs. *)
let contains_substring subject lit =
  let n = String.length subject and m = String.length lit in
  let rec go i = i + m <= n && (String.sub subject i m = lit || go (i + 1)) in
  m = 0 || go 0

let prop_literals_sound =
  QCheck.Test.make ~count:2000
    ~name:"required literals occur in every accepted subject"
    (QCheck.make
       ~print:(fun (r, s) -> Printf.sprintf "pattern %s subject %S" (Syntax.to_string r) s)
       (QCheck.Gen.pair gen_regex gen_subject))
    (fun (r, s) ->
      let re = Regex.compile (Syntax.to_string r) in
      (not (Regex.search re s))
      || List.for_all
           (fun group -> List.exists (contains_substring s) group)
           (Regex.required_literals re))

let () =
  let tc (name, f) = Alcotest.test_case name `Quick f in
  Alcotest.run "regex"
    [
      "literals", List.map tc literal_tests;
      "metachars", List.map tc metachar_tests;
      "classes", List.map tc class_tests;
      "anchors", List.map tc anchor_tests;
      "repeats", List.map tc repeat_tests;
      "paper-table1", List.map tc paper_table1_tests;
      "parse-errors", List.map tc parse_error_tests;
      "compile-cache", List.map tc cache_tests;
      "frozen-dfa", List.map tc frozen_tests;
      "required-literals", List.map tc literal_extraction_tests;
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_nfa_vs_naive;
            prop_print_parse_roundtrip;
            prop_quote_literal;
            prop_frozen_vs_lazy_vs_naive;
            prop_literals_sound;
          ] );
    ]

// Pinned workload data: every pattern the benchmark builds or serves, with
// the DFA and SFA state counts it must produce.
//
// PSxxxxx entries are PROSITE motifs; SYNnnn entries are synthetic
// PROSITE-style motifs, copied as text out of the library's seeded
// generator (seed 2017) so the workloads no longer depend on it.  Set-up
// runs no sizing pass: a build whose state count differs from the pinned
// one is a wrong answer.  The run's --seed never changes these lists.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sfa_bench::pinned {

struct Motif {
  const char* id;
  const char* text;       // PROSITE syntax
  std::uint32_t dfa_states;  // minimal match-anywhere DFA
  std::uint32_t sfa_states;
};

inline constexpr Motif kPS00018 = {
    "PS00018",
    "D-x-[DNS]-{ILVFYW}-[DENSTG]-[DNQGHRK]-{GP}-[LIVMC]-[DENQSTAGC]-x(2)-[DE]-"
    "[LIVMFYW].",
    226, 14005};
inline constexpr Motif kPS00237 = {
    "PS00237",
    "[GSTALIVMFYWC]-[GSTANCPDE]-{EDPKRH}-x(2)-[LIVMNQGA]-x(2)-[LIVMFT]-"
    "[GSTANC]-[LIVMFYWSTAC]-[DENH]-R-[FYWCSH]-x(2)-[LIVM].",
    702, 94289};

/// build-prosite: 31 motifs, SFAs of 2.9k-141k states, 1.0 M states in all.
inline constexpr Motif kBuildProsite[] = {
    {"SYN103", "{NITGW}-{IS}-x-T-[GQMLE]-V(4,6)-{KAF}(2)-K-{RWCNV}-{TPMV}-P-x.", 74, 2944},
    {"PS00007", "[RK]-x(2,3)-[DE]-x(2,3)-Y.", 54, 3687},
    {"SYN101", "{NVK}-S(4)-G(3,6)-[IC]-K-x-[HMNFCG](4)-x-[DFETN].", 28, 4770},
    {"SYN59", "[SNFIRH]-C(3)-x(1)-x(4)-x-I(4,5)-N.", 57, 4854},
    {"SYN40", "{FL}(1)-x-H-{CNHDKF}-x-{KM}-[IRDPM]-{EDFQLI}-{PIF}-P(1,2)-{GYNIL}.", 54, 5437},
    {"PS00211", "[LIVMFYC]-S-[SG]-G-x(3)-[RKA]-[LIVMYA]-x(3)-[LIVMF]-[AG].", 32, 5877},
    {"SYN125", "x-x(4,6)-{WYM}-[KI]-x-x(2,3)-[MV]-[GFVQE](3,5).", 57, 5940},
    {"SYN49", "[SINCFV]-x-{WMKCPF}(1,2)-K(2,6)-x-E(4)-V(4)-N(2,3)-x(2)-[GC]-[TWK](3).", 77, 6044},
    {"PS00010", "C-x-[DN]-x(4)-[FY]-x-C-x-C.", 87, 7184},
    {"SYN58", "x-x(3)-[MNELDY](1,2)-[QSH]-{CT}(1)-E(2)-x-x(1)-[WTA]-[AHEM](4,5)-[GYQW]-[VHR](4).", 79, 7526},
    {"SYN88", "G-F(2)-A-x(4)-x-x-[PITRQL](4)-G-T(3)-x-x-F.", 71, 8433},
    {"SYN45", "x(1,4)-x-C(2)-Q-x-x(2,6)-x-C-H(2)-x(4,7)-x.", 76, 10756},
    {"SYN22", "{WRF}(3,5)-x-T(2)-N(1,5)-Y-x-x-x(3)-[DQYHL](3).", 85, 12356},
    kPS00018,
    {"SYN33", "[PQSR]-{TWVF}-{VHI}(1,2)-[NYRVH]-F-[AY]-x(2,3)-{YSPNRM}-{FKI}-N-V(2,6).", 174, 14060},
    {"SYN30", "x-x-{DCNTK}-{YAGD}(4)-N-x-x-[WLPYIK](1,5).", 111, 14146},
    {"SYN28", "[RFS]-x-x-{SIR}(4,7)-[HP]-[AKINV].", 125, 14193},
    {"SYN46", "x-x(3,6)-x-x-{VQPK}-[KCVQI]-{FV}(4)-x-P(4)-[KHVSMQ]-x.", 264, 17923},
    {"SYN99", "[PW](1,4)-x(3)-W(4)-x(4)-A(4,8)-R-G.", 242, 22147},
    {"SYN147", "{APYIH}(2,5)-G-{FGY}(2)-F-x-x(4,6)-[PCMQ].", 104, 27422},
    {"SYN81", "I-[MNTR]-Q-[LTNR]-{GDWF}-x-x(1,5)-{RSLT}-{IMPFYC}-[QV](3).", 147, 29641},
    {"SYN156", "{PSEAYH}-[RANK]-[MGD](1,3)-{IEADKR}-[CRLVIK](3,7)-W(1)-A-[ID](2)-x-x-x-[IQT].", 74, 31898},
    {"SYN155", "x-[SYRPVW]-x-x(4)-[EHS]-[NYFIPK](1)-L-x-{YVSLEN}.", 290, 33824},
    {"SYN130", "[NKQTV]-x(3)-[VE]-x(1)-{DCAKYR}-x-F-[KLEV]-[ART]-{STE}-x-x.", 403, 39803},
    {"SYN84", "[RS]-x-I(3,4)-x(3)-{PLVH}-{TY}-Q-P-x(3,4)-x-Y-[PWS].", 158, 41593},
    {"SYN114", "V(1)-x-x-x-F(3)-[PRW](3,4)-x-{HCGYR}(3,7)-N(3).", 282, 52860},
    {"SYN70", "[CRPE](1,2)-x-x(4,6)-S-{RKG}-C(4,5)-{MIYRVW}-[KANG]-G-{LEKS}(1,4)-G(3,6)-{PAK}.", 311, 91853},
    kPS00237,
    {"SYN79", "[SKTP]-{CHYI}(2)-[NSKRL]-{IFWLSD}(1)-N-[DQY]-{LRTWD}(4)-{SAGHQ}(4)-x.", 248, 114062},
    {"SYN77", "[GDH]-x-x(4,7)-x-x-S-x-{FN}-x.", 216, 119451},
    {"SYN74", "{SRQALT}(1)-L(3)-R-x(1,4)-x(3,4)-V-x(1,5)-[EG](1).", 248, 141091},
};

/// build-compressed: r-class exact-string DFAs (length, generator seed 500)
/// and mid-sized motifs; every one crosses kCompressThresholdBytes.
struct RClass {
  const char* id;
  unsigned length;
  std::uint32_t dfa_states;
  std::uint32_t sfa_states;
};
inline constexpr RClass kCompressedR[] = {
    {"r250", 250, 252, 31076},
    {"r300", 300, 302, 44786},
    {"r350", 350, 352, 60979},
};
inline constexpr Motif kCompressedProsite[] = {
    {"SYN28", "[RFS]-x-x-{SIR}(4,7)-[HP]-[AKINV].", 125, 14193},
    kPS00018,
    {"SYN46", "x-x(3,6)-x-x-{VQPK}-[KCVQI]-{FV}(4)-x-P(4)-[KHVSMQ]-x.", 264, 17923},
    {"SYN99", "[PW](1,4)-x(3)-W(4)-x(4)-A(4,8)-R-G.", 242, 22147},
    {"SYN81", "I-[MNTR]-Q-[LTNR]-{GDWF}-x-x(1,5)-{RSLT}-{IMPFYC}-[QV](3).", 147, 29641},
    {"SYN155", "x-[SYRPVW]-x-x(4)-[EHS]-[NYFIPK](1)-L-x-{YVSLEN}.", 290, 33824},
    {"SYN84", "[RS]-x-I(3,4)-x(3)-{PLVH}-{TY}-Q-P-x(3,4)-x-Y-[PWS].", 158, 41593},
};
inline constexpr unsigned kRClassSeed = 500;
inline constexpr std::size_t kCompressThresholdBytes = std::size_t{8} << 20;

/// scan-bulk uses kPS00018, whose δ-table (1.1 MB) fits in L2, and
/// kPS00237, whose δ-table (7.2 MB) does not.

/// serve-steady: 8 three-motif sets (member DFAs <= 100 states); the union
/// DFA and its SFA sizes are pinned.
struct ServeSet {
  const char* members[3];
  std::uint32_t union_dfa_states;
  std::uint32_t sfa_states;
};
inline constexpr ServeSet kSteadySets[] = {
    {{"T(2)-x(1,3)-[AWFKGT](4).",
      "x-{PWY}-[GACD]-[AEP]-F-V(4,7)-N(1)-x-C(1,4)-R-Y(3).",
      "x-{PFGK}-D(2,4)-x-[IFP]-M(4,6)-T(1)."},
     164, 13776},
    {{"x(2)-L-[FH]-{SLMVF}(1)-I(2)-x-C(3)-F-A-Y-x-x(4).",
      "[KF]-[QN]-E-[VGMTK]-[DTI]-{SN}-x(4).",
      "x-E(1,2)-[HVFCIW]-x-[LIT](2)-P-[KNVM]-{TY}-x."},
     58, 6606},
    {{"C-{KTFPAC}-[GEI]-x-[NMY]-x-x.",
      "[GDCF](2)-{HI}-[AT]-x-L-V-W(1,2)-[EIFMV]-S-x(1)-x(3).",
      "x-x-Y-M(3,7)-x-F-{FCMS}-H(1)-Y(2)-F."},
     77, 6570},
    {{"{ID}(3)-{DHS}-C-L-[PDAH]-K-x-K-[VEGKC]-[RFC]-x-Y.",
      "x-E(1)-[VL]-[HI]-[AH]-H-G-[NCLE].", "{EIKNA}-x-L(2)-G-x."},
     121, 8496},
    {{"x-[PLGN](4,5)-F-[VIWFP]-A-G-[MH]-I-[MCD]-x-M(4)-x.",
      "M(3)-x-E-T-[EPYMLK]-S-F-x-E-[MQ].",
      "x-G(2)-x-H-Y-R-A-[VR]-Y-x-[IYN](2,4)."},
     79, 6657},
    {{"Y(4,5)-{ISYT}(1)-Y-R-{ITSPE}-{WHKAP}.",
      "[WSGA]-N-[EPFV](4)-S(2,5)-[DNKCWI]-[GFVI]-N-x-x.",
      "[IPNECS]-S-C(2)-x-N."},
     47, 3448},
    {{"[NFLRMD]-[LFCY]-[YNAD]-{ADGQ}-T(2)-[WLF](4,6)-{GCPDH}(1,5).",
      "N(4,6)-F-H-Y(2,5)-[MEQDPC]-x-x(2)-{SGRCE}-[DTFQH]-R.",
      "x-P(4,6)-[QW]-A(4)."},
     141, 18301},
    {{"x(4,7)-K(2,5)-[VSG](3)-K-[NGME](1)-x-[HC]-{HYFRC}-[HDPKN].",
      "I-[IACRY]-I-[HW]-[HWDIKT].", "x-x(4)-V-x(4)."},
     51, 5795},
};

/// serve-churn: 24 single-motif sets of similar size (DFAs of 29-49
/// states), whose cache entries total 10.5 MiB, against an LRU budget of
/// two thirds of that.
inline constexpr Motif kChurnSets[] = {
    {"SYN346", "Q-R(4)-D-[RDNS](3,4)-L-x(3)-N(3,4)-H-x-[FYENVT]-x.", 30, 2653},
    {"SYN358", "{FDNAKS}-M(3)-[IHQ]-F-x-{GYL}-x(3)-H(2,3)-M(4).", 35, 2194},
    {"SYN213", "{AHF}-E(1)-x-x-{QRFE}(3)-[GTI]-x.", 38, 2669},
    {"SYN306", "[GK]-{RPHLM}-x-x-S-[PAFQ](3)-x-[QLMW].", 34, 2402},
    {"SYN120", "x-N(4,7)-[YIFQAK]-L-G(4,5)-[VYSG]-x(1)-x-{EAD}-I(4,6)-K.", 40, 2331},
    {"SYN172", "x-C(2,4)-L(2)-Y(2,6)-[QNMRHW]-P(2)-x(4)-L(1)-E-[DYVN]-[YDTH](3,5)-x(3).", 40, 2350},
    {"SYN315", "x-x(1,4)-K(3)-{SGVPH}-{NKQ}-[ECTDK](3)-[WCLES]-{KDW}.", 29, 3593},
    {"SYN301", "{QMGETC}(3)-{IYP}-R(1)-x-Y-[CTNRIM]-V-[DHQYCA](1,2)-W-x(1)-H.", 46, 2477},
    {"SYN44", "D(4,8)-[IC]-[FHVP](3)-x-[YFA]-[VDSY]-H-[RTY]-x(4)-S.", 31, 4280},
    {"SYN85", "{KYAW}-C(1)-F-D(2,6)-x-{IEM}-x(1,2)-V-E(1,5)-x.", 47, 2067},
    {"SYN109", "x-{THD}-H-G-M(4,5)-{TL}-x-x-N(3,7)-x-[TL](3,5)-x.", 49, 3266},
    {"SYN32", "x-L(1)-[RKGF]-[SNDI](3)-x-x-T(2,4)-{QL}-x-{FGWANV}-R(2,5)-Q.", 38, 3062},
    {"SYN219", "P-[SLY](2,6)-[SKDCQ](4,8)-[YQ].", 33, 3725},
    {"SYN305", "x(1,2)-x-[LSGI]-N-{VCLST}(3,4)-{AT}-C(3,6)-x-{QSN}.", 46, 2622},
    {"SYN298", "x-K-[FV](4,7)-{KLTV}(1,4)-[YSGRV]-{FAVYM}-A-[MGN]-D(2).", 49, 2907},
    {"SYN182", "F-[EHD]-V-x-x(1)-x-[QKPGYV]-x-R-x-x-[GSM].", 37, 4798},
    {"SYN177", "V-x(4)-[HMQKP]-[GDMWCY].", 49, 3304},
    {"SYN203", "P(2)-x-{TL}(1)-K-W-V-[CG](4,7)-Y(2,5)-A-x-[FGSP].", 30, 1923},
    {"SYN19", "H-[NCD](4,5)-x(3,5)-K.", 33, 1951},
    {"SYN115", "Y-x-Y-{ICH}-x-x(1,3)-N.", 40, 1951},
    {"SYN167", "x-L(1)-[KMECLY](3,5)-N-[SM]-{RHPIAY}-x(2,3)-Q-x.", 46, 2663},
    {"SYN146", "Y(4,7)-Y-x-[HQ]-x(2,4)-x(1)-W-K(2,6)-x-x.", 47, 3732},
    {"SYN89", "P-S-[HD]-x(4)-H-D-x-{IWHQE}(2)-x(1,4).", 43, 3418},
    {"SYN198", "W(2)-{DLM}(4,7)-I.", 41, 2196},
};
inline constexpr std::uint64_t kChurnBudgetBytes = std::uint64_t{7} << 20;

}  // namespace sfa_bench::pinned

/* Compiled inner loops of the reshaped bootstrap and the Chernoff simulator,
 * the parser of plain sample CSVs, and the normal law's sums behind the
 * smoothed objective and the local fits of the nuisance estimates.
 *
 * The two loops repeat, operation for operation, the numpy code they replace
 * (Generator.integers followed by inference._replicate, and
 * Generator.standard_normal followed by chernoff._scan_strip), so their
 * results are equal to theirs bit for bit:
 *   - bins are filled in draw order, starting from 0.0, as np.bincount does;
 *   - a cumulative sum starts from its first element, as np.cumsum does;
 *   - the first argmax wins, and the first NaN counts as the maximum, as
 *     np.argmax does;
 *   - row indices and normal draws come from numpy's PCG64, its 32-bit
 *     bounded integers and its ziggurat, step for step.
 * Doubles see only additions, subtractions, multiplications, divisions,
 * comparisons and libm's exp and log1p (the calls numpy's ziggurat makes),
 * and the library is built with -ffp-contract=off, so no step is fused or
 * reordered.
 *
 * The PCG64 multiplier (from O'Neill's PCG), the ziggurat constants and the
 * tables ki_double, wi_double and fi_double are numpy 2.4.6's
 * (numpy/random/src/pcg64 and numpy/random/src/distributions), copied bit
 * for bit from the .rodata of its shipped libnpyrandom.a.  pcg64_next32 and
 * bounded_lemire32 follow numpy 2.4.6's pcg64_next32 and
 * buffered_bounded_lemire_uint32 (numpy/random/src/pcg64 and
 * numpy/random/src/distributions/distributions.c), and pcg64_seeded its
 * pcg64_set_seed.  numpy is Copyright (c) 2005-2025, NumPy Developers, under
 * the BSD 3-clause license.
 *
 * The parser converts each decimal to the nearest double, ties to even, as
 * Python's float() does: Clinger's exact path, else the Eisel-Lemire method
 * with 128-bit truncated powers of five (D. Lemire, "Number parsing at a
 * gigabyte per second", Software: Practice and Experience 51(8), 2021;
 * N. Mushtak and D. Lemire, "Fast number parsing without fallback", SPE
 * 53(6), 2023), as fast_float's compute_float does for doubles, else strtod.
 *
 * The normal law's kernels (tr_normal, tr_smoothed, tr_local_fit) replace no
 * numpy code: they define the library's exp, phi and Phi and its weighted
 * sums, with a numpy transcription in the same operation order (kernels.py,
 * nuisance.py) as the fallback and the oracle.  Only + - * /, comparisons,
 * fabs and sqrt touch their doubles, so their bits are the same on every CPU.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* one rounding per operation: Clinger's path and the loops above rely on it */
#if FLT_EVAL_METHOD != 0
#error "doubles must be evaluated in double precision"
#endif

/* First index of the maximum of v[0..len-1], with np.argmax's NaN rule. */
static int64_t first_argmax(const double *v, int64_t len, double *peak)
{
    double best = v[0];
    int64_t arg = 0;
    if (best == best) {
        for (int64_t j = 1; j < len; j++) {
            if (!(v[j] <= best)) {
                best = v[j];
                arg = j;
                if (best != best)
                    break;
            }
        }
    }
    *peak = best;
    return arg;
}

/* numpy's PCG64: a 128-bit LCG stepped before each output, then XSL-RR. */
typedef struct {
    __uint128_t state, inc;
} pcg64;

#define PCG64_MULTIPLIER (((__uint128_t)0x2360ED051FC65DA4ULL << 64) | 0x4385DF649FCCF645ULL)

static inline uint64_t pcg64_next(pcg64 *g)
{
    g->state = g->state * PCG64_MULTIPLIER + g->inc;
    uint64_t word = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned rot = (unsigned)(g->state >> 122);
    return (word >> rot) | (word << ((64 - rot) & 63));
}

/* numpy's pcg64_set_seed: the generator PCG64 seeds from its SeedSequence's
 * four words w[0..3] (the 128-bit initial state and sequence, high word
 * first): from state 0 with increment 2 seq + 1, a step, the initial state
 * added, and a step. */
static inline pcg64 pcg64_seeded(const uint64_t *w)
{
    pcg64 g;
    g.inc = ((((__uint128_t)w[2] << 64) | w[3]) << 1) | 1u;
    g.state = g.inc + (((__uint128_t)w[0] << 64) | w[1]);
    g.state = g.state * PCG64_MULTIPLIER + g.inc;
    return g;
}

/* numpy's next_double: the top 53 bits of a word, in [0, 1). */
static inline double pcg64_next_double(pcg64 *g)
{
    return (double)(pcg64_next(g) >> 11) * (1.0 / 9007199254740992.0);
}

/* numpy's ziggurat for the standard normal: 256 layers, the base one holding
 * the tail beyond r.  ki_double[i] bounds the 52-bit magnitudes that fall
 * wholly under the density in layer i, wi_double[i] scales them to x, and
 * fi_double[i] is the density at the layer's edge.  Not static, so tests can
 * replay the sampler's paths through a stream. */
#define ZIGGURAT_NOR_R 3.6541528853610087963519472518
#define ZIGGURAT_NOR_INV_R 0.27366123732975827203338247596

const uint64_t ki_double[256] = {
    0x0ef33d8025ef6a, 0x00000000000000, 0x0c08be98fbc6a8, 0x0da354fabd8142, 0x0e51f67ec1eeea,
    0x0eb255e9d3f77e, 0x0eef4b817ecab9, 0x0f19470afa44aa, 0x0f37ed61ffcb18, 0x0f4f469561255c,
    0x0f61a5e41ba396, 0x0f707a755396a4, 0x0f7cb2ec28449a, 0x0f86f10c6357d3, 0x0f8fa6578325de,
    0x0f9724c74dd0da, 0x0f9da907dbf509, 0x0fa360f581fa74, 0x0fa86fde5b4bf8, 0x0facf160d354dc,
    0x0fb0fb6718b90f, 0x0fb49f8d5374c6, 0x0fb7ec2366fe77, 0x0fbaece9a1e50e, 0x0fbdab9d040bed,
    0x0fc03060ff6c57, 0x0fc2821037a248, 0x0fc4a67ae25bd1, 0x0fc6a2977aee31, 0x0fc87aa92896a4,
    0x0fca325e4bde85, 0x0fcbcce902231a, 0x0fcd4d12f839c4, 0x0fceb54d8fec99, 0x0fd007bf1dc930,
    0x0fd1464dd6c4e6, 0x0fd272a8e2f450, 0x0fd38e4ff0c91e, 0x0fd49a9990b478, 0x0fd598b8920f53,
    0x0fd689c08e99ec, 0x0fd76ea9c8e832, 0x0fd848547b08e8, 0x0fd9178bad2c8c, 0x0fd9dd07a7add2,
    0x0fda9970105e8c, 0x0fdb4d5dc02e20, 0x0fdbf95c5bfcd0, 0x0fdc9debb99a7d, 0x0fdd3b8118729d,
    0x0fddd288342f90, 0x0fde6364369f64, 0x0fdeee708d514e, 0x0fdf7401a6b42e, 0x0fdff46599ed40,
    0x0fe06fe4bc24f2, 0x0fe0e6c225a258, 0x0fe1593c28b84c, 0x0fe1c78cbc3f99, 0x0fe231e9db1caa,
    0x0fe29885da1b91, 0x0fe2fb8fb54186, 0x0fe35b33558d4a, 0x0fe3b799d0002a, 0x0fe410e99ead7f,
    0x0fe46746d47734, 0x0fe4bad34c095c, 0x0fe50baed29524, 0x0fe559f74ebc78, 0x0fe5a5c8e41212,
    0x0fe5ef3e138689, 0x0fe6366fd91078, 0x0fe67b75c6d578, 0x0fe6be661e11aa, 0x0fe6ff55e5f4f2,
    0x0fe73e5900a702, 0x0fe77b823e9e39, 0x0fe7b6e37070a2, 0x0fe7f08d774243, 0x0fe8289053f08c,
    0x0fe85efb35173a, 0x0fe893dc840864, 0x0fe8c741f0cebc, 0x0fe8f9387d4ef6, 0x0fe929cc879b1d,
    0x0fe95909d388ea, 0x0fe986fb939aa2, 0x0fe9b3ac714866, 0x0fe9df2694b6d5, 0x0fea0973abe67c,
    0x0fea329cf166a4, 0x0fea5aab32952c, 0x0fea81a6d5741a, 0x0feaa797de1cf0, 0x0feacc85f3d920,
    0x0feaf07865e63c, 0x0feb13762fec13, 0x0feb3585fe2a4a, 0x0feb56ae3162b4, 0x0feb76f4e284fa,
    0x0feb965fe62014, 0x0febb4f4cf9d7c, 0x0febd2b8f449d0, 0x0febefb16e2e3e, 0x0fec0be31ebde8,
    0x0fec2752b15a15, 0x0fec42049dafd3, 0x0fec5bfd29f196, 0x0fec75406ceef4, 0x0fec8dd2500cb4,
    0x0feca5b6911f12, 0x0fecbcf0c427fe, 0x0fecd38454fb15, 0x0fece97488c8b3, 0x0fecfec47f91b7,
    0x0fed1377358528, 0x0fed278f844903, 0x0fed3b10242f4c, 0x0fed4dfbad586e, 0x0fed605498c3dd,
    0x0fed721d414fe8, 0x0fed8357e4a982, 0x0fed9406a42cc8, 0x0feda42b85b704, 0x0fedb3c8746ab4,
    0x0fedc2df416652, 0x0fedd171a46e52, 0x0feddf813c8ad3, 0x0feded0f909980, 0x0fedfa1e0fd414,
    0x0fee06ae124bc4, 0x0fee12c0d95a06, 0x0fee1e579006e0, 0x0fee29734b6524, 0x0fee34150ae4bc,
    0x0fee3e3db89b3c, 0x0fee47ee2982f4, 0x0fee51271db086, 0x0fee59e9407f41, 0x0fee623528b42e,
    0x0fee6a0b5897f1, 0x0fee716c3e077a, 0x0fee7858327b82, 0x0fee7ecf7b06ba, 0x0fee84d2484ab2,
    0x0fee8a60b66343, 0x0fee8f7accc851, 0x0fee94207e25da, 0x0fee9851a829ea, 0x0fee9c0e13485c,
    0x0fee9f557273f4, 0x0feea22762ccae, 0x0feea4836b42ac, 0x0feea668fc2d71, 0x0feea7d76ed6fa,
    0x0feea8ce04fa0a, 0x0feea94be8333b, 0x0feea950296410, 0x0feea8d9c0075e, 0x0feea7e7897654,
    0x0feea678481d24, 0x0feea48aa29e83, 0x0feea21d22e4da, 0x0fee9f2e352024, 0x0fee9bbc26af2e,
    0x0fee97c524f2e4, 0x0fee93473c0a3a, 0x0fee8e40557516, 0x0fee88ae369c7a, 0x0fee828e7f3dfd,
    0x0fee7bdea7b888, 0x0fee749bff37ff, 0x0fee6cc3a9bd5e, 0x0fee64529e007e, 0x0fee5b45a32888,
    0x0fee51994e57b6, 0x0fee474a0006cf, 0x0fee3c53e12c50, 0x0fee30b2e02ad8, 0x0fee2462ad8205,
    0x0fee175eb83c5a, 0x0fee09a22a1447, 0x0fedfb27e349cc, 0x0fedebea76216c, 0x0feddbe422047e,
    0x0fedcb0ece39d3, 0x0fedb964042cf4, 0x0feda6dce938c9, 0x0fed937237e98d, 0x0fed7f1c38a836,
    0x0fed69d2b9c02b, 0x0fed538d06ae00, 0x0fed3c41dea422, 0x0fed23e76a2fd8, 0x0fed0a732fe644,
    0x0fecefda07fe34, 0x0fecd4100eb7b8, 0x0fecb708956eb4, 0x0fec98b61230c1, 0x0fec790a0da978,
    0x0fec57f50f31fe, 0x0fec356686c962, 0x0fec114cb4b335, 0x0febeb948e6fd0, 0x0febc429a0b692,
    0x0feb9af5ee0cdc, 0x0feb6fe1c98542, 0x0feb42d3ad1f9e, 0x0feb13b00b2d4b, 0x0feae2591a02e9,
    0x0feaaeae992257, 0x0fea788d8ee326, 0x0fea3fcffd73e5, 0x0fea044c8dd9f6, 0x0fe9c5d62f563b,
    0x0fe9843ba947a4, 0x0fe93f471d4728, 0x0fe8f6bd76c5d6, 0x0fe8aa5dc4e8e6, 0x0fe859e07ab1ea,
    0x0fe804f690a940, 0x0fe7ab488233c0, 0x0fe74c751f6aa5, 0x0fe6e8102aa202, 0x0fe67da0b6abd8,
    0x0fe60c9f38307e, 0x0fe5947338f742, 0x0fe51470977280, 0x0fe48bd436f458, 0x0fe3f9bffd1e37,
    0x0fe35d35eeb19c, 0x0fe2b5122fe4fe, 0x0fe20003995557, 0x0fe13c82788314, 0x0fe068c4ee67b0,
    0x0fdf82b02b71aa, 0x0fde87c57efeaa, 0x0fdd7509c63bfd, 0x0fdc46e529bf13, 0x0fdaf8f82e0282,
    0x0fd985e1b2ba75, 0x0fd7e6ef48cf04, 0x0fd613adbd650b, 0x0fd40149e2f012, 0x0fd1a1a7b4c7ac,
    0x0fcee204761f9e, 0x0fcba8d85e11b2, 0x0fc7d26ecd2d22, 0x0fc32b2f1e22ed, 0x0fbd6581c0b83a,
    0x0fb606c4005434, 0x0fac40582a2874, 0x0f9e971e014598, 0x0f89fa48a41dfc, 0x0f66c5f7f0302c,
    0x0f1a5a4b331c4a,
};
const double wi_double[256] = {
    0x1.f493b7815d979p-51, 0x1.b8d0be3fdf6c6p-55, 0x1.250af3c2c5bb4p-54, 0x1.57cb938443b61p-54,
    0x1.801fce82fa70cp-54, 0x1.a230c2e4cd0bcp-54, 0x1.c004d2f3861f7p-54, 0x1.dac2f5a747274p-54,
    0x1.f32482d4cd5c3p-54, 0x1.04d32278ebbadp-53, 0x1.0f5053b025d43p-53, 0x1.192a697413677p-53,
    0x1.227a28f7a1af5p-53, 0x1.2b52e3863d880p-53, 0x1.33c3fc05791f5p-53, 0x1.3bd9ec1a2b12fp-53,
    0x1.439ef8dff9b55p-53, 0x1.4b1bb363dfea7p-53, 0x1.52575621ad374p-53, 0x1.59580a707ce96p-53,
    0x1.60231cfd97eeap-53, 0x1.66bd261a37c3dp-53, 0x1.6d2a292000570p-53, 0x1.736dad346f8a6p-53,
    0x1.798ad10b32a77p-53, 0x1.7f845ad46f543p-53, 0x1.855cc53430a77p-53, 0x1.8b1649e7b769ap-53,
    0x1.90b2ea94ecf98p-53, 0x1.96347822c1eeap-53, 0x1.9b9c98e38c546p-53, 0x1.a0eccdca4a72cp-53,
    0x1.a62676d77cd59p-53, 0x1.ab4ad6e101630p-53, 0x1.b05b16d136c9cp-53, 0x1.b558487427a29p-53,
    0x1.ba4368e529f3ap-53, 0x1.bf1d62abf8232p-53, 0x1.c3e70f9594ef3p-53, 0x1.c8a13a5323b61p-53,
    0x1.cd4c9fe72268bp-53, 0x1.d1e9f0e80b748p-53, 0x1.d679d29e41f10p-53, 0x1.dafce0023b8c3p-53,
    0x1.df73aa9f17653p-53, 0x1.e3debb5d2edfep-53, 0x1.e83e9337a6f00p-53, 0x1.ec93abdf982cep-53,
    0x1.f0de784f06226p-53, 0x1.f51f654d8f688p-53, 0x1.f956d9e87d7aep-53, 0x1.fd8537dfa2eacp-53,
    0x1.00d56e04234ecp-52, 0x1.02e40f5398f9ap-52, 0x1.04eea9e16a5fcp-52, 0x1.06f565b72a010p-52,
    0x1.08f869071f40bp-52, 0x1.0af7d84bc6113p-52, 0x1.0cf3d664bcc7fp-52, 0x1.0eec84b16086bp-52,
    0x1.10e20329515eep-52, 0x1.12d4707310fbep-52, 0x1.14c3e9f8e9141p-52, 0x1.16b08bfc4201ep-52,
    0x1.189a71a78da34p-52, 0x1.1a81b51ee6d88p-52, 0x1.1c666f8f82acbp-52, 0x1.1e48b93e0d42ep-52,
    0x1.2028a9940a09fp-52, 0x1.2206572c4c6e9p-52, 0x1.23e1d7de9c31fp-52, 0x1.25bb40ca96bfbp-52,
    0x1.2792a661dd37fp-52, 0x1.29681c719d71bp-52, 0x1.2b3bb62b82edap-52, 0x1.2d0d862e1b853p-52,
    0x1.2edd9e8cba98ep-52, 0x1.30ac10d6e48d7p-52, 0x1.3278ee1f4b930p-52, 0x1.3444470265ea1p-52,
    0x1.360e2baca52d5p-52, 0x1.37d6abe05586ap-52, 0x1.399dd6fb2b264p-52, 0x1.3b63bbfb83d03p-52,
    0x1.3d28698561de0p-52, 0x1.3eebede725a83p-52, 0x1.40ae571e09e74p-52, 0x1.426fb2da6745dp-52,
    0x1.44300e83c30a4p-52, 0x1.45ef773cac75dp-52, 0x1.47adf9e66c336p-52, 0x1.496ba32488f2fp-52,
    0x1.4b287f602415dp-52, 0x1.4ce49acb311dcp-52, 0x1.4ea001638a605p-52, 0x1.505abef5e5562p-52,
    0x1.5214df20a8b5ap-52, 0x1.53ce6d56a664fp-52, 0x1.558774e1bb2c8p-52, 0x1.574000e555f78p-52,
    0x1.58f81c60e8514p-52, 0x1.5aafd23241b59p-52, 0x1.5c672d17d733dp-52, 0x1.5e1e37b2f8cd3p-52,
    0x1.5fd4fc89f5e38p-52, 0x1.618b860a31fc3p-52, 0x1.6341de8a2b0a2p-52, 0x1.64f8104b7260bp-52,
    0x1.66ae257c99672p-52, 0x1.6864283b13137p-52, 0x1.6a1a22950b2b1p-52, 0x1.6bd01e8b343bbp-52,
    0x1.6d8626128d352p-52, 0x1.6f3c43161f854p-52, 0x1.70f27f78b68ebp-52, 0x1.72a8e516914c6p-52,
    0x1.745f7dc70eedcp-52, 0x1.7616535e5731fp-52, 0x1.77cd6faeff449p-52, 0x1.7984dc8babd93p-52,
    0x1.7b3ca3c8b1409p-52, 0x1.7cf4cf3db22fbp-52, 0x1.7ead68c73dee7p-52, 0x1.80667a486ea1fp-52,
    0x1.82200dac88676p-52, 0x1.83da2ce899f15p-52, 0x1.8594e1fd1f5bdp-52, 0x1.875036f7a7ec5p-52,
    0x1.890c35f47f72dp-52, 0x1.8ac8e9205c043p-52, 0x1.8c865aba10c9cp-52, 0x1.8e44951446a27p-52,
    0x1.9003a2973b58fp-52, 0x1.91c38dc288347p-52, 0x1.9384612ef0afcp-52, 0x1.954627903a28ap-52,
    0x1.9708ebb70d5eep-52, 0x1.98ccb892e2a31p-52, 0x1.9a919933f99bfp-52, 0x1.9c5798cd5d92cp-52,
    0x1.9e1ec2b6f7411p-52, 0x1.9fe7226fad24ap-52, 0x1.a1b0c39f93692p-52, 0x1.a37bb21a2c85bp-52,
    0x1.a547f9e0bbb88p-52, 0x1.a715a724aa9a4p-52, 0x1.a8e4c64a0313dp-52, 0x1.aab563e9ff108p-52,
    0x1.ac878cd5af5cep-52, 0x1.ae5b4e18bb336p-52, 0x1.b030b4fc3a11ap-52, 0x1.b207cf09a985bp-52,
    0x1.b3e0aa0e00c00p-52, 0x1.b5bb541ce3d03p-52, 0x1.b797db93f8927p-52, 0x1.b9764f1e5f73cp-52,
    0x1.bb56bdb85256ep-52, 0x1.bd3936b2ec0a2p-52, 0x1.bf1dc9b81ae83p-52, 0x1.c10486cec16a0p-52,
    0x1.c2ed7e5f07a2dp-52, 0x1.c4d8c136e0d1cp-52, 0x1.c6c6608ec8705p-52, 0x1.c8b66e0eba617p-52,
    0x1.caa8fbd36a2abp-52, 0x1.cc9e1c73bd690p-52, 0x1.ce95e3068e037p-52, 0x1.d0906328b8f6ep-52,
    0x1.d28db1037ef20p-52, 0x1.d48de1533c647p-52, 0x1.d691096e7f123p-52, 0x1.d8973f4d7fba5p-52,
    0x1.daa0999206e70p-52, 0x1.dcad2f8fc490ep-52, 0x1.debd195522e37p-52, 0x1.e0d06fb49d21cp-52,
    0x1.e2e74c4ea46f6p-52, 0x1.e501c99c1d188p-52, 0x1.e72002f97fe25p-52, 0x1.e94214b2abf0ap-52,
    0x1.eb681c0f76f08p-52, 0x1.ed9237610a73ap-52, 0x1.efc086101eca9p-52, 0x1.f1f328ac25321p-52,
    0x1.f42a40fb74d6dp-52, 0x1.f665f20c90168p-52, 0x1.f8a6604899782p-52, 0x1.faebb187122bfp-52,
    0x1.fd360d22fe785p-52, 0x1.ff859c118f60bp-52, 0x1.00ed447d3a075p-51, 0x1.021a8028fc947p-51,
    0x1.034a983a902abp-51, 0x1.047da4e3ef5c7p-51, 0x1.05b3bf6adb37ep-51, 0x1.06ed023a72668p-51,
    0x1.082988f632e17p-51, 0x1.0969708e8a254p-51, 0x1.0aacd7571c0c4p-51, 0x1.0bf3dd1eed448p-51,
    0x1.0d3ea34aa3d30p-51, 0x1.0e8d4cf116593p-51, 0x1.0fdffefa69fb6p-51, 0x1.1136e04207041p-51,
    0x1.129219bbb5d35p-51, 0x1.13f1d69c4096dp-51, 0x1.1556448602e3bp-51, 0x1.16bf93b9deef3p-51,
    0x1.182df74d21261p-51, 0x1.19a1a564eebacp-51, 0x1.1b1ad777f2f8ep-51, 0x1.1c99ca971a694p-51,
    0x1.1e1ebfbe4ae39p-51, 0x1.1fa9fc2e2d901p-51, 0x1.213bc9d04cc81p-51, 0x1.22d477a6fd3eep-51,
    0x1.24745a4ac9c24p-51, 0x1.261bcc77658e0p-51, 0x1.27cb2faa8592ep-51, 0x1.2982ecd770e78p-51,
    0x1.2b437532a0a52p-51, 0x1.2d0d43196db97p-51, 0x1.2ee0db1a978f5p-51, 0x1.30becd256aeeep-51,
    0x1.32a7b5e68a4a3p-51, 0x1.349c405ae12a3p-51, 0x1.369d27a33a840p-51, 0x1.38ab39256410ap-51,
    0x1.3ac7570ae88fap-51, 0x1.3cf27b31704a6p-51, 0x1.3f2dbaa60f475p-51, 0x1.417a49cb9e5dap-51,
    0x1.43d9815545e94p-51, 0x1.464ce44a73a15p-51, 0x1.48d62759c43bcp-51, 0x1.4b7739d6b5a27p-51,
    0x1.4e3250dcd8902p-51, 0x1.5109f53e9ac41p-51, 0x1.54011523a7e42p-51, 0x1.571b1a94ae41bp-51,
    0x1.5a5c08b718dd9p-51, 0x1.5dc8a243ad0fep-51, 0x1.61669cf861e4cp-51, 0x1.653ce7b006aeap-51,
    0x1.69540be9fe5c3p-51, 0x1.6db6b8d09e232p-51, 0x1.72728f05f7a34p-51, 0x1.7799556090673p-51,
    0x1.7d42df4d6ce8cp-51, 0x1.839030529f234p-51, 0x1.8ab0fbfaa7c14p-51, 0x1.92ee0946f4496p-51,
    0x1.9cbee014057abp-51, 0x1.a8fdc7894775ap-51, 0x1.b981f3878fdb1p-51, 0x1.d3bb48209ad33p-51,
};
const double fi_double[256] = {
    0x1.0000000000000p+0, 0x1.f446ac979f087p-1, 0x1.eb7545b6ca915p-1, 0x1.e3f11e027f077p-1,
    0x1.dd36fa704de95p-1, 0x1.d70920657bcf2p-1, 0x1.d144978a119dcp-1, 0x1.cbd33a8a72debp-1,
    0x1.c6a5ecea9787fp-1, 0x1.c1b1cd9eebaeap-1, 0x1.bceeb4ee1dc82p-1, 0x1.b85653a8ff552p-1,
    0x1.b3e3a8234dd10p-1, 0x1.af92a3f6ce8a2p-1, 0x1.ab5fef17a2504p-1, 0x1.a748bd550c9e1p-1,
    0x1.a34aafdf5af0fp-1, 0x1.9f63bee651fd8p-1, 0x1.9b9228d240681p-1, 0x1.97d4657617ac1p-1,
    0x1.94291c21b7a47p-1, 0x1.908f1bd31714fp-1, 0x1.8d0554fe60aa8p-1, 0x1.898ad48badf02p-1,
    0x1.861ebfc37bcacp-1, 0x1.82c050f56cf6ep-1, 0x1.7f6ed4b20e2cbp-1, 0x1.7c29a779c6858p-1,
    0x1.78f033ca0b0d5p-1, 0x1.75c1f0770d856p-1, 0x1.729e5f43f6d12p-1, 0x1.6f850baea7aeep-1,
    0x1.6c7589e635a89p-1, 0x1.696f75e513b2ap-1, 0x1.667272a92e323p-1, 0x1.637e298550c18p-1,
    0x1.6092498802665p-1, 0x1.5dae86f4aff6ap-1, 0x1.5ad29acc85c89p-1, 0x1.57fe4264c8d8fp-1,
    0x1.55313f08d9e46p-1, 0x1.526b55a656cd5p-1, 0x1.4fac4e820b667p-1, 0x1.4cf3f4f494ec0p-1,
    0x1.4a42172dc5278p-1, 0x1.479685fdf5012p-1, 0x1.44f114a493679p-1, 0x1.425198a355fe3p-1,
    0x1.3fb7e99585b82p-1, 0x1.3d23e10af31a3p-1, 0x1.3a955a662cd0ep-1, 0x1.380c32bda00d5p-1,
    0x1.358848bf550e9p-1, 0x1.33097c9703a35p-1, 0x1.308fafd6438efp-1, 0x1.2e1ac55ea3beep-1,
    0x1.2baaa14d7954ap-1, 0x1.293f28e93cd15p-1, 0x1.26d84290504edp-1, 0x1.2475d5a90db84p-1,
    0x1.2217ca92ff7f2p-1, 0x1.1fbe0a9929620p-1, 0x1.1d687fe549969p-1, 0x1.1b171573fd111p-1,
    0x1.18c9b709b3c50p-1, 0x1.16805128639dap-1, 0x1.143ad105ea99cp-1, 0x1.11f9248311f38p-1,
    0x1.0fbb3a2325913p-1, 0x1.0d810104142a0p-1, 0x1.0b4a68d70d9aep-1, 0x1.091761d995d81p-1,
    0x1.06e7dccf03c36p-1, 0x1.04bbcafa63f2ep-1, 0x1.02931e18b822ap-1, 0x1.006dc85b8cac4p-1,
    0x1.fc9778c7bbda1p-2, 0x1.f859da7a900cap-2, 0x1.f4229cb2f7af3p-2, 0x1.eff1a717e8f95p-2,
    0x1.ebc6e20bd1f54p-2, 0x1.e7a236a4ec3c5p-2, 0x1.e3838ea5f9b85p-2, 0x1.df6ad47763a09p-2,
    0x1.db57f320b56b1p-2, 0x1.d74ad6426de33p-2, 0x1.d3436a1021080p-2, 0x1.cf419b4ae5b6dp-2,
    0x1.cb45573c0a848p-2, 0x1.c74e8bb00d7c7p-2, 0x1.c35d26f1d2cb8p-2, 0x1.bf7117c616a17p-2,
    0x1.bb8a4d6716d91p-2, 0x1.b7a8b7807131bp-2, 0x1.b3cc462b331cap-2, 0x1.aff4e9ea18552p-2,
    0x1.ac2293a5f5a9ep-2, 0x1.a85534aa4d880p-2, 0x1.a48cbea20c04dp-2, 0x1.a0c923946843ep-2,
    0x1.9d0a55e1e93dfp-2, 0x1.995048418c0c6p-2, 0x1.959aedbe09f93p-2, 0x1.91ea39b33cb17p-2,
    0x1.8e3e1fcb9f115p-2, 0x1.8a9693fde9188p-2, 0x1.86f38a8ac5ab6p-2, 0x1.8354f7faa0dd9p-2,
    0x1.7fbad11b8d911p-2, 0x1.7c250aff414b0p-2, 0x1.78939af9252ebp-2, 0x1.7506769c7b1edp-2,
    0x1.717d93ba9614cp-2, 0x1.6df8e86124caap-2, 0x1.6a786ad88de21p-2, 0x1.66fc11a25cbe2p-2,
    0x1.6383d377be515p-2, 0x1.600fa7480d2c8p-2, 0x1.5c9f84376c244p-2, 0x1.5933619d6eebep-2,
    0x1.55cb3703d0100p-2, 0x1.5266fc2533bedp-2, 0x1.4f06a8ebf6d92p-2, 0x1.4baa357109ca2p-2,
    0x1.485199fad6ad4p-2, 0x1.44fccefc324fep-2, 0x1.41abcd1357a19p-2, 0x1.3e5e8d08ed2dbp-2,
    0x1.3b1507cf143aep-2, 0x1.37cf368081379p-2, 0x1.348d125f9d19ep-2, 0x1.314e94d5af62fp-2,
    0x1.2e13b77210766p-2, 0x1.2adc73e963fddp-2, 0x1.27a8c414db11ep-2, 0x1.2478a1f17de89p-2,
    0x1.214c079f7cc9ep-2, 0x1.1e22ef6188116p-2, 0x1.1afd539c2f050p-2, 0x1.17db2ed5454e8p-2,
    0x1.14bc7bb34ee67p-2, 0x1.11a134fcf2423p-2, 0x1.0e895598709c4p-2, 0x1.0b74d88b242dap-2,
    0x1.0863b8f904336p-2, 0x1.0555f2242e9d9p-2, 0x1.024b7f6c7747ep-2, 0x1.fe88b89df93c5p-3,
    0x1.f88108cb83235p-3, 0x1.f27fe6ce998d2p-3, 0x1.ec854a4c99c44p-3, 0x1.e6912b2283cddp-3,
    0x1.e0a3816457184p-3, 0x1.dabc455c7900ap-3, 0x1.d4db6f8b2514fp-3, 0x1.cf00f8a5e6fccp-3,
    0x1.c92cd9971df53p-3, 0x1.c35f0b7d89d47p-3, 0x1.bd9787abe18a1p-3, 0x1.b7d647a8731aap-3,
    0x1.b21b452ccd13ap-3, 0x1.ac667a2571807p-3, 0x1.a6b7e0b19267ep-3, 0x1.a10f7322d7e3dp-3,
    0x1.9b6d2bfd2fe5ap-3, 0x1.95d105f6a7c27p-3, 0x1.903afbf74fa69p-3, 0x1.8aab09192815bp-3,
    0x1.852128a819a38p-3, 0x1.7f9d5621f7175p-3, 0x1.7a1f8d368a323p-3, 0x1.74a7c9c7ab5a6p-3,
    0x1.6f3607e964716p-3, 0x1.69ca43e21f25cp-3, 0x1.64647a2adf19cp-3, 0x1.5f04a76f883f9p-3,
    0x1.59aac88f31d6cp-3, 0x1.5456da9c86835p-3, 0x1.4f08dade31fc1p-3, 0x1.49c0c6cf5ce2dp-3,
    0x1.447e9c20375d5p-3, 0x1.3f4258b6931aep-3, 0x1.3a0bfaae8d7eep-3, 0x1.34db805b4ab88p-3,
    0x1.2fb0e847c2a65p-3, 0x1.2a8c3137a071ap-3, 0x1.256d5a2835eb7p-3, 0x1.2054625183c34p-3,
    0x1.1b41492757d42p-3, 0x1.16340e5a82d63p-3, 0x1.112cb1da26eb9p-3, 0x1.0c2b33d5209bap-3,
    0x1.072f94bb8bf85p-3, 0x1.0239d54067d2ap-3, 0x1.fa93ecb6b222cp-4, 0x1.f0bff29520e1cp-4,
    0x1.e6f7bf29aa54bp-4, 0x1.dd3b56176e88fp-4, 0x1.d38abb9bd91e5p-4, 0x1.c9e5f493b740ap-4,
    0x1.c04d0680b1015p-4, 0x1.b6bff78f2e233p-4, 0x1.ad3ece9caf633p-4, 0x1.a3c9933ea6286p-4,
    0x1.9a604dc9d5b19p-4, 0x1.9103075a4a0abp-4, 0x1.87b1c9dbf2852p-4, 0x1.7e6ca013eefd6p-4,
    0x1.753395aaa1176p-4, 0x1.6c06b73694a4cp-4, 0x1.62e6124854d18p-4, 0x1.59d1b577466a4p-4,
    0x1.50c9b06fa2baep-4, 0x1.47ce1401b2213p-4, 0x1.3edef23269a86p-4, 0x1.35fc5e4d93e70p-4,
    0x1.2d266cf9b3111p-4, 0x1.245d344dd0d91p-4, 0x1.1ba0cbe97897dp-4, 0x1.12f14d0f2179dp-4,
    0x1.0a4ed2c159625p-4, 0x1.01b979e30e497p-4, 0x1.f262c2b6c6e35p-5, 0x1.e16d547b25181p-5,
    0x1.d092efeadf162p-5, 0x1.bfd3e0f282a2cp-5, 0x1.af30790385f70p-5, 0x1.9ea90f9295563p-5,
    0x1.8e3e02a68b5abp-5, 0x1.7defb77af271ep-5, 0x1.6dbe9b398d064p-5, 0x1.5dab23cf2add4p-5,
    0x1.4db5d0e11275dp-5, 0x1.3ddf2ce98eecbp-5, 0x1.2e27ce83df497p-5, 0x1.1e9059f1f6abcp-5,
    0x1.0f1982e968011p-5, 0x1.ff881d718a5c4p-6, 0x1.e121adb828c75p-6, 0x1.c301983cd091ap-6,
    0x1.a529f4e22ebf8p-6, 0x1.879d1b600c10ap-6, 0x1.6a5daf40bbf82p-6, 0x1.4d6eaf2fbb064p-6,
    0x1.30d388dab5e13p-6, 0x1.1490334603012p-6, 0x1.f152a4f72dd49p-7, 0x1.ba48d274f8facp-7,
    0x1.841040d8da478p-7, 0x1.4eb96421acfe0p-7, 0x1.1a59229952f92p-7, 0x1.ce160f8ec6837p-8,
    0x1.69ea8d90cb85dp-8, 0x1.08a1f03b0b1fdp-8, 0x1.55f9f43c1b067p-9, 0x1.4a605b6b9f70fp-10,
};

/* The draws numpy's random_standard_normal takes off the fast path: the tail
 * of the base layer, or the wedge of layer idx.  Returns the draw, or NaN
 * when the wedge rejects x. */
static __attribute__((noinline)) double normal_slow_path(pcg64 *g, int idx, uint64_t rabs, double x)
{
    if (idx == 0) {
        for (;;) {
            /* 1 - U, so log1p never sees -1 */
            double xx = -ZIGGURAT_NOR_INV_R * log1p(-pcg64_next_double(g));
            double yy = -log1p(-pcg64_next_double(g));
            if (yy + yy > xx * xx)
                return ((rabs >> 8) & 0x1) ? -(ZIGGURAT_NOR_R + xx) : ZIGGURAT_NOR_R + xx;
        }
    }
    if ((fi_double[idx - 1] - fi_double[idx]) * pcg64_next_double(g) + fi_double[idx] < exp(-0.5 * x * x))
        return x;
    return NAN;
}

/* numpy's random_standard_normal, its sign applied by flipping the sign bit
 * (numpy negates under a branch, which gives the same bits but mispredicts
 * on every other draw). */
static inline double standard_normal(pcg64 *g)
{
    for (;;) {
        uint64_t r = pcg64_next(g);
        int idx = (int)(r & 0xff);
        r >>= 8;
        uint64_t rabs = (r >> 1) & 0x000fffffffffffffULL;
        double x = (double)(int64_t)rabs * wi_double[idx];
        uint64_t bits;
        memcpy(&bits, &x, sizeof bits);
        bits ^= r << 63;
        memcpy(&x, &bits, sizeof x);
        if (rabs < ki_double[idx])
            return x; /* about 99.3% of draws */
        /* through a copy, so the caller's state never leaves registers on the fast path */
        pcg64 slow = *g;
        x = normal_slow_path(&slow, idx, rabs, x);
        *g = slow;
        if (x == x)
            return x;
    }
}

/* One block of Chernoff paths, drawn from the PCG64 state held in
 * state[0..3] (the 128-bit state and increment, high word first), which
 * ends holding the state after the last draw.  Each path draws its right
 * wing's m standard normals, then its left wing's, each scaled by scale; for
 * each wing, the first argmax of cumsum(increments) - penalty and its value.
 * Equal to rng.standard_normal((n_paths, 2m)) * scale scanned by
 * chernoff._scan_strip, with no buffer of increments. */
void tr_chernoff_block(uint64_t *state, int64_t n_paths, int64_t m, double scale,
                       const double *penalty, int64_t *right_arg, double *right_max,
                       int64_t *left_arg, double *left_max)
{
    pcg64 g = {((__uint128_t)state[0] << 64) | state[1], ((__uint128_t)state[2] << 64) | state[3]};
    for (int64_t i = 0; i < n_paths; i++) {
        for (int side = 0; side < 2; side++) {
            double sum = standard_normal(&g) * scale;
            double best = sum - penalty[0];
            int64_t arg = 0;
            for (int64_t j = 1; j < m; j++) {
                sum = sum + standard_normal(&g) * scale;
                double v = sum - penalty[j];
                /* first_argmax's rule, drawing on after a NaN peak freezes it */
                if (!(v <= best) && best == best) {
                    best = v;
                    arg = j;
                }
            }
            if (side == 0) {
                right_arg[i] = arg;
                right_max[i] = best;
            } else {
                left_arg[i] = arg;
                left_max[i] = best;
            }
        }
    }
    state[0] = (uint64_t)(g.state >> 64);
    state[1] = (uint64_t)g.state;
    state[2] = (uint64_t)(g.inc >> 64);
    state[3] = (uint64_t)g.inc;
}

/* numpy's pcg64_next32: each 64-bit output serves two 32-bit draws, its low
 * half first and its high half on the next call (numpy's has_uint32 and
 * uinteger, both clear in a fresh generator). */
typedef struct {
    pcg64 g;
    int has_half;
    uint32_t half;
} pcg64_32;

static inline uint32_t pcg64_next32(pcg64_32 *s)
{
    if (s->has_half) {
        s->has_half = 0;
        return s->half;
    }
    uint64_t word = pcg64_next(&s->g);
    s->has_half = 1;
    s->half = (uint32_t)(word >> 32);
    return (uint32_t)word;
}

/* numpy's buffered_bounded_lemire_uint32 (Lemire's method): a draw in
 * [0, rng] for rng < 2^32 - 1, the high half of a 32 x 32-bit product,
 * drawn again while the low half falls below 2^32 mod (rng + 1). */
static inline uint32_t bounded_lemire32(pcg64_32 *s, uint32_t rng)
{
    const uint32_t rng_excl = rng + 1;
    uint64_t m = (uint64_t)pcg64_next32(s) * rng_excl;
    uint32_t leftover = (uint32_t)m;
    if (__builtin_expect(leftover < rng_excl, 0)) {
        const uint32_t threshold = (UINT32_MAX - rng) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)pcg64_next32(s) * rng_excl;
            leftover = (uint32_t)m;
        }
    }
    return (uint32_t)(m >> 32);
}

/* A row as the bootstrap reads it, its score beside its rank among the
 * distinct index values, so that a drawn row is one memory access. */
typedef struct {
    double g;
    int64_t rank;
} boot_row;

/* rows drawn, and their records prefetched, before any of them is binned */
#define DRAW_BATCH 64

/* Segment j of the criterion, ((S*[j] - suffix_orig[j]) / n) - penalty[j],
 * written to work[j] and folded into the running maximum *top without a
 * branch; *nan records whether it is NaN, which the maximum skips. */
static inline void criterion(double *work, int64_t j, double suffix, const double *suffix_orig,
                             const double *penalty, double denom, double *top, int *nan)
{
    double c = ((suffix - suffix_orig[j]) / denom) - penalty[j];
    work[j] = c;
    *top = c > *top ? c : *top;
    *nan |= c != c;
}

/* Replicates 0..reps-1 of the reshaped bootstrap.  Replicate r draws its n
 * rows as Generator.integers(0, n, n) would from a PCG64 seeded with the
 * SeedSequence words in seeds[4r..4r+3] (see pcg64_seeded), for
 * n - 1 < 2^32 - 1, where numpy takes its 32-bit branch.  It bins the drawn
 * scores by rank into k bins as it draws, takes the suffix sums S*
 * (S*[k] = 0) and the criterion ((S* - suffix_orig) / n) - penalty over k + 1
 * segments, and writes its first argmax to args[r].  work holds k + 1
 * doubles.  Returns the first replicate whose criterion at its argmax is not
 * finite, with work holding that criterion, or -1 when there is none.
 *
 * The argmax takes no branch per segment that depends on the data: the
 * backward loop that writes the criterion also keeps its maximum in four
 * independent accumulators, and a forward scan returns the first segment
 * equal to it, which is np.argmax's index (-0.0 equals +0.0, and an all -inf
 * criterion gives 0).  The maximum skips NaN, so when any segment is NaN the
 * replicate falls back to first_argmax, which returns the first NaN. */
int64_t tr_bootstrap_chunk(const uint64_t *seeds, int64_t reps, int64_t n, const boot_row *rows,
                           int64_t k, const double *suffix_orig, const double *penalty,
                           double *work, int64_t *args)
{
    const uint32_t rng = (uint32_t)(n - 1);
    const double denom = (double)n;
    uint32_t batch[DRAW_BATCH];
    for (int64_t r = 0; r < reps; r++) {
        pcg64_32 s = {pcg64_seeded(seeds + 4 * r), 0, 0};
        for (int64_t j = 0; j < k; j++)
            work[j] = 0.0;
        for (int64_t i = 0; i < n; i += DRAW_BATCH) {
            int len = n - i < DRAW_BATCH ? (int)(n - i) : DRAW_BATCH;
            for (int b = 0; b < len; b++) {
                batch[b] = bounded_lemire32(&s, rng);
                __builtin_prefetch(rows + batch[b]);
            }
            for (int b = 0; b < len; b++) {
                const boot_row *row = rows + batch[b];
                work[row->rank] += row->g;
            }
        }
        double suffix = work[k - 1];
        double top0 = -INFINITY, top1 = -INFINITY, top2 = -INFINITY, top3 = -INFINITY;
        int nan = 0;
        criterion(work, k, 0.0, suffix_orig, penalty, denom, &top0, &nan);
        criterion(work, k - 1, suffix, suffix_orig, penalty, denom, &top1, &nan);
        int64_t j = k - 2;
        for (; j >= 3; j -= 4) {
            suffix = suffix + work[j];
            criterion(work, j, suffix, suffix_orig, penalty, denom, &top0, &nan);
            suffix = suffix + work[j - 1];
            criterion(work, j - 1, suffix, suffix_orig, penalty, denom, &top1, &nan);
            suffix = suffix + work[j - 2];
            criterion(work, j - 2, suffix, suffix_orig, penalty, denom, &top2, &nan);
            suffix = suffix + work[j - 3];
            criterion(work, j - 3, suffix, suffix_orig, penalty, denom, &top3, &nan);
        }
        for (; j >= 0; j--) {
            suffix = suffix + work[j];
            criterion(work, j, suffix, suffix_orig, penalty, denom, &top0, &nan);
        }
        double peak;
        if (nan) {
            args[r] = first_argmax(work, k + 1, &peak);
        } else {
            top0 = top1 > top0 ? top1 : top0;
            top2 = top3 > top2 ? top3 : top2;
            peak = top2 > top0 ? top2 : top0;
            int64_t arg = 0;
            while (work[arg] != peak)
                arg++;
            args[r] = arg;
        }
        if (!isfinite(peak))
            return r;
    }
    return -1;
}

/* 5^q for q = -342..308, normalized to 128 bits (the top bit set) and
 * truncated, high word first: fast_float's power_of_five_128.  For q >= 0 it
 * is 5^q shifted left or right; for q < 0, the quotient 2^b / 5^-q plus 1,
 * with b = z + 127 for q >= -27 and 2z + 128 below, z the bit length of
 * 5^-q - 1, shifted right to 128 bits.  Not static, so tests can derive it
 * again by exact integer arithmetic and compare. */
#define POW5_MIN_Q (-342)
#define POW5_MAX_Q 308

const uint64_t pow5_128[2 * (POW5_MAX_Q - POW5_MIN_Q + 1)] = {
    0xeef453d6923bd65a, 0x113faa2906a13b3f, 0x9558b4661b6565f8, 0x4ac7ca59a424c507,
    0xbaaee17fa23ebf76, 0x5d79bcf00d2df649, 0xe95a99df8ace6f53, 0xf4d82c2c107973dc,
    0x91d8a02bb6c10594, 0x79071b9b8a4be869, 0xb64ec836a47146f9, 0x9748e2826cdee284,
    0xe3e27a444d8d98b7, 0xfd1b1b2308169b25, 0x8e6d8c6ab0787f72, 0xfe30f0f5e50e20f7,
    0xb208ef855c969f4f, 0xbdbd2d335e51a935, 0xde8b2b66b3bc4723, 0xad2c788035e61382,
    0x8b16fb203055ac76, 0x4c3bcb5021afcc31, 0xaddcb9e83c6b1793, 0xdf4abe242a1bbf3d,
    0xd953e8624b85dd78, 0xd71d6dad34a2af0d, 0x87d4713d6f33aa6b, 0x8672648c40e5ad68,
    0xa9c98d8ccb009506, 0x680efdaf511f18c2, 0xd43bf0effdc0ba48, 0x0212bd1b2566def2,
    0x84a57695fe98746d, 0x014bb630f7604b57, 0xa5ced43b7e3e9188, 0x419ea3bd35385e2d,
    0xcf42894a5dce35ea, 0x52064cac828675b9, 0x818995ce7aa0e1b2, 0x7343efebd1940993,
    0xa1ebfb4219491a1f, 0x1014ebe6c5f90bf8, 0xca66fa129f9b60a6, 0xd41a26e077774ef6,
    0xfd00b897478238d0, 0x8920b098955522b4, 0x9e20735e8cb16382, 0x55b46e5f5d5535b0,
    0xc5a890362fddbc62, 0xeb2189f734aa831d, 0xf712b443bbd52b7b, 0xa5e9ec7501d523e4,
    0x9a6bb0aa55653b2d, 0x47b233c92125366e, 0xc1069cd4eabe89f8, 0x999ec0bb696e840a,
    0xf148440a256e2c76, 0xc00670ea43ca250d, 0x96cd2a865764dbca, 0x380406926a5e5728,
    0xbc807527ed3e12bc, 0xc605083704f5ecf2, 0xeba09271e88d976b, 0xf7864a44c633682e,
    0x93445b8731587ea3, 0x7ab3ee6afbe0211d, 0xb8157268fdae9e4c, 0x5960ea05bad82964,
    0xe61acf033d1a45df, 0x6fb92487298e33bd, 0x8fd0c16206306bab, 0xa5d3b6d479f8e056,
    0xb3c4f1ba87bc8696, 0x8f48a4899877186c, 0xe0b62e2929aba83c, 0x331acdabfe94de87,
    0x8c71dcd9ba0b4925, 0x9ff0c08b7f1d0b14, 0xaf8e5410288e1b6f, 0x07ecf0ae5ee44dd9,
    0xdb71e91432b1a24a, 0xc9e82cd9f69d6150, 0x892731ac9faf056e, 0xbe311c083a225cd2,
    0xab70fe17c79ac6ca, 0x6dbd630a48aaf406, 0xd64d3d9db981787d, 0x092cbbccdad5b108,
    0x85f0468293f0eb4e, 0x25bbf56008c58ea5, 0xa76c582338ed2621, 0xaf2af2b80af6f24e,
    0xd1476e2c07286faa, 0x1af5af660db4aee1, 0x82cca4db847945ca, 0x50d98d9fc890ed4d,
    0xa37fce126597973c, 0xe50ff107bab528a0, 0xcc5fc196fefd7d0c, 0x1e53ed49a96272c8,
    0xff77b1fcbebcdc4f, 0x25e8e89c13bb0f7a, 0x9faacf3df73609b1, 0x77b191618c54e9ac,
    0xc795830d75038c1d, 0xd59df5b9ef6a2417, 0xf97ae3d0d2446f25, 0x4b0573286b44ad1d,
    0x9becce62836ac577, 0x4ee367f9430aec32, 0xc2e801fb244576d5, 0x229c41f793cda73f,
    0xf3a20279ed56d48a, 0x6b43527578c1110f, 0x9845418c345644d6, 0x830a13896b78aaa9,
    0xbe5691ef416bd60c, 0x23cc986bc656d553, 0xedec366b11c6cb8f, 0x2cbfbe86b7ec8aa8,
    0x94b3a202eb1c3f39, 0x7bf7d71432f3d6a9, 0xb9e08a83a5e34f07, 0xdaf5ccd93fb0cc53,
    0xe858ad248f5c22c9, 0xd1b3400f8f9cff68, 0x91376c36d99995be, 0x23100809b9c21fa1,
    0xb58547448ffffb2d, 0xabd40a0c2832a78a, 0xe2e69915b3fff9f9, 0x16c90c8f323f516c,
    0x8dd01fad907ffc3b, 0xae3da7d97f6792e3, 0xb1442798f49ffb4a, 0x99cd11cfdf41779c,
    0xdd95317f31c7fa1d, 0x40405643d711d583, 0x8a7d3eef7f1cfc52, 0x482835ea666b2572,
    0xad1c8eab5ee43b66, 0xda3243650005eecf, 0xd863b256369d4a40, 0x90bed43e40076a82,
    0x873e4f75e2224e68, 0x5a7744a6e804a291, 0xa90de3535aaae202, 0x711515d0a205cb36,
    0xd3515c2831559a83, 0x0d5a5b44ca873e03, 0x8412d9991ed58091, 0xe858790afe9486c2,
    0xa5178fff668ae0b6, 0x626e974dbe39a872, 0xce5d73ff402d98e3, 0xfb0a3d212dc8128f,
    0x80fa687f881c7f8e, 0x7ce66634bc9d0b99, 0xa139029f6a239f72, 0x1c1fffc1ebc44e80,
    0xc987434744ac874e, 0xa327ffb266b56220, 0xfbe9141915d7a922, 0x4bf1ff9f0062baa8,
    0x9d71ac8fada6c9b5, 0x6f773fc3603db4a9, 0xc4ce17b399107c22, 0xcb550fb4384d21d3,
    0xf6019da07f549b2b, 0x7e2a53a146606a48, 0x99c102844f94e0fb, 0x2eda7444cbfc426d,
    0xc0314325637a1939, 0xfa911155fefb5308, 0xf03d93eebc589f88, 0x793555ab7eba27ca,
    0x96267c7535b763b5, 0x4bc1558b2f3458de, 0xbbb01b9283253ca2, 0x9eb1aaedfb016f16,
    0xea9c227723ee8bcb, 0x465e15a979c1cadc, 0x92a1958a7675175f, 0x0bfacd89ec191ec9,
    0xb749faed14125d36, 0xcef980ec671f667b, 0xe51c79a85916f484, 0x82b7e12780e7401a,
    0x8f31cc0937ae58d2, 0xd1b2ecb8b0908810, 0xb2fe3f0b8599ef07, 0x861fa7e6dcb4aa15,
    0xdfbdcece67006ac9, 0x67a791e093e1d49a, 0x8bd6a141006042bd, 0xe0c8bb2c5c6d24e0,
    0xaecc49914078536d, 0x58fae9f773886e18, 0xda7f5bf590966848, 0xaf39a475506a899e,
    0x888f99797a5e012d, 0x6d8406c952429603, 0xaab37fd7d8f58178, 0xc8e5087ba6d33b83,
    0xd5605fcdcf32e1d6, 0xfb1e4a9a90880a64, 0x855c3be0a17fcd26, 0x5cf2eea09a55067f,
    0xa6b34ad8c9dfc06f, 0xf42faa48c0ea481e, 0xd0601d8efc57b08b, 0xf13b94daf124da26,
    0x823c12795db6ce57, 0x76c53d08d6b70858, 0xa2cb1717b52481ed, 0x54768c4b0c64ca6e,
    0xcb7ddcdda26da268, 0xa9942f5dcf7dfd09, 0xfe5d54150b090b02, 0xd3f93b35435d7c4c,
    0x9efa548d26e5a6e1, 0xc47bc5014a1a6daf, 0xc6b8e9b0709f109a, 0x359ab6419ca1091b,
    0xf867241c8cc6d4c0, 0xc30163d203c94b62, 0x9b407691d7fc44f8, 0x79e0de63425dcf1d,
    0xc21094364dfb5636, 0x985915fc12f542e4, 0xf294b943e17a2bc4, 0x3e6f5b7b17b2939d,
    0x979cf3ca6cec5b5a, 0xa705992ceecf9c42, 0xbd8430bd08277231, 0x50c6ff782a838353,
    0xece53cec4a314ebd, 0xa4f8bf5635246428, 0x940f4613ae5ed136, 0x871b7795e136be99,
    0xb913179899f68584, 0x28e2557b59846e3f, 0xe757dd7ec07426e5, 0x331aeada2fe589cf,
    0x9096ea6f3848984f, 0x3ff0d2c85def7621, 0xb4bca50b065abe63, 0x0fed077a756b53a9,
    0xe1ebce4dc7f16dfb, 0xd3e8495912c62894, 0x8d3360f09cf6e4bd, 0x64712dd7abbbd95c,
    0xb080392cc4349dec, 0xbd8d794d96aacfb3, 0xdca04777f541c567, 0xecf0d7a0fc5583a0,
    0x89e42caaf9491b60, 0xf41686c49db57244, 0xac5d37d5b79b6239, 0x311c2875c522ced5,
    0xd77485cb25823ac7, 0x7d633293366b828b, 0x86a8d39ef77164bc, 0xae5dff9c02033197,
    0xa8530886b54dbdeb, 0xd9f57f830283fdfc, 0xd267caa862a12d66, 0xd072df63c324fd7b,
    0x8380dea93da4bc60, 0x4247cb9e59f71e6d, 0xa46116538d0deb78, 0x52d9be85f074e608,
    0xcd795be870516656, 0x67902e276c921f8b, 0x806bd9714632dff6, 0x00ba1cd8a3db53b6,
    0xa086cfcd97bf97f3, 0x80e8a40eccd228a4, 0xc8a883c0fdaf7df0, 0x6122cd128006b2cd,
    0xfad2a4b13d1b5d6c, 0x796b805720085f81, 0x9cc3a6eec6311a63, 0xcbe3303674053bb0,
    0xc3f490aa77bd60fc, 0xbedbfc4411068a9c, 0xf4f1b4d515acb93b, 0xee92fb5515482d44,
    0x991711052d8bf3c5, 0x751bdd152d4d1c4a, 0xbf5cd54678eef0b6, 0xd262d45a78a0635d,
    0xef340a98172aace4, 0x86fb897116c87c34, 0x9580869f0e7aac0e, 0xd45d35e6ae3d4da0,
    0xbae0a846d2195712, 0x8974836059cca109, 0xe998d258869facd7, 0x2bd1a438703fc94b,
    0x91ff83775423cc06, 0x7b6306a34627ddcf, 0xb67f6455292cbf08, 0x1a3bc84c17b1d542,
    0xe41f3d6a7377eeca, 0x20caba5f1d9e4a93, 0x8e938662882af53e, 0x547eb47b7282ee9c,
    0xb23867fb2a35b28d, 0xe99e619a4f23aa43, 0xdec681f9f4c31f31, 0x6405fa00e2ec94d4,
    0x8b3c113c38f9f37e, 0xde83bc408dd3dd04, 0xae0b158b4738705e, 0x9624ab50b148d445,
    0xd98ddaee19068c76, 0x3badd624dd9b0957, 0x87f8a8d4cfa417c9, 0xe54ca5d70a80e5d6,
    0xa9f6d30a038d1dbc, 0x5e9fcf4ccd211f4c, 0xd47487cc8470652b, 0x7647c3200069671f,
    0x84c8d4dfd2c63f3b, 0x29ecd9f40041e073, 0xa5fb0a17c777cf09, 0xf468107100525890,
    0xcf79cc9db955c2cc, 0x7182148d4066eeb4, 0x81ac1fe293d599bf, 0xc6f14cd848405530,
    0xa21727db38cb002f, 0xb8ada00e5a506a7c, 0xca9cf1d206fdc03b, 0xa6d90811f0e4851c,
    0xfd442e4688bd304a, 0x908f4a166d1da663, 0x9e4a9cec15763e2e, 0x9a598e4e043287fe,
    0xc5dd44271ad3cdba, 0x40eff1e1853f29fd, 0xf7549530e188c128, 0xd12bee59e68ef47c,
    0x9a94dd3e8cf578b9, 0x82bb74f8301958ce, 0xc13a148e3032d6e7, 0xe36a52363c1faf01,
    0xf18899b1bc3f8ca1, 0xdc44e6c3cb279ac1, 0x96f5600f15a7b7e5, 0x29ab103a5ef8c0b9,
    0xbcb2b812db11a5de, 0x7415d448f6b6f0e7, 0xebdf661791d60f56, 0x111b495b3464ad21,
    0x936b9fcebb25c995, 0xcab10dd900beec34, 0xb84687c269ef3bfb, 0x3d5d514f40eea742,
    0xe65829b3046b0afa, 0x0cb4a5a3112a5112, 0x8ff71a0fe2c2e6dc, 0x47f0e785eaba72ab,
    0xb3f4e093db73a093, 0x59ed216765690f56, 0xe0f218b8d25088b8, 0x306869c13ec3532c,
    0x8c974f7383725573, 0x1e414218c73a13fb, 0xafbd2350644eeacf, 0xe5d1929ef90898fa,
    0xdbac6c247d62a583, 0xdf45f746b74abf39, 0x894bc396ce5da772, 0x6b8bba8c328eb783,
    0xab9eb47c81f5114f, 0x066ea92f3f326564, 0xd686619ba27255a2, 0xc80a537b0efefebd,
    0x8613fd0145877585, 0xbd06742ce95f5f36, 0xa798fc4196e952e7, 0x2c48113823b73704,
    0xd17f3b51fca3a7a0, 0xf75a15862ca504c5, 0x82ef85133de648c4, 0x9a984d73dbe722fb,
    0xa3ab66580d5fdaf5, 0xc13e60d0d2e0ebba, 0xcc963fee10b7d1b3, 0x318df905079926a8,
    0xffbbcfe994e5c61f, 0xfdf17746497f7052, 0x9fd561f1fd0f9bd3, 0xfeb6ea8bedefa633,
    0xc7caba6e7c5382c8, 0xfe64a52ee96b8fc0, 0xf9bd690a1b68637b, 0x3dfdce7aa3c673b0,
    0x9c1661a651213e2d, 0x06bea10ca65c084e, 0xc31bfa0fe5698db8, 0x486e494fcff30a62,
    0xf3e2f893dec3f126, 0x5a89dba3c3efccfa, 0x986ddb5c6b3a76b7, 0xf89629465a75e01c,
    0xbe89523386091465, 0xf6bbb397f1135823, 0xee2ba6c0678b597f, 0x746aa07ded582e2c,
    0x94db483840b717ef, 0xa8c2a44eb4571cdc, 0xba121a4650e4ddeb, 0x92f34d62616ce413,
    0xe896a0d7e51e1566, 0x77b020baf9c81d17, 0x915e2486ef32cd60, 0x0ace1474dc1d122e,
    0xb5b5ada8aaff80b8, 0x0d819992132456ba, 0xe3231912d5bf60e6, 0x10e1fff697ed6c69,
    0x8df5efabc5979c8f, 0xca8d3ffa1ef463c1, 0xb1736b96b6fd83b3, 0xbd308ff8a6b17cb2,
    0xddd0467c64bce4a0, 0xac7cb3f6d05ddbde, 0x8aa22c0dbef60ee4, 0x6bcdf07a423aa96b,
    0xad4ab7112eb3929d, 0x86c16c98d2c953c6, 0xd89d64d57a607744, 0xe871c7bf077ba8b7,
    0x87625f056c7c4a8b, 0x11471cd764ad4972, 0xa93af6c6c79b5d2d, 0xd598e40d3dd89bcf,
    0xd389b47879823479, 0x4aff1d108d4ec2c3, 0x843610cb4bf160cb, 0xcedf722a585139ba,
    0xa54394fe1eedb8fe, 0xc2974eb4ee658828, 0xce947a3da6a9273e, 0x733d226229feea32,
    0x811ccc668829b887, 0x0806357d5a3f525f, 0xa163ff802a3426a8, 0xca07c2dcb0cf26f7,
    0xc9bcff6034c13052, 0xfc89b393dd02f0b5, 0xfc2c3f3841f17c67, 0xbbac2078d443ace2,
    0x9d9ba7832936edc0, 0xd54b944b84aa4c0d, 0xc5029163f384a931, 0x0a9e795e65d4df11,
    0xf64335bcf065d37d, 0x4d4617b5ff4a16d5, 0x99ea0196163fa42e, 0x504bced1bf8e4e45,
    0xc06481fb9bcf8d39, 0xe45ec2862f71e1d6, 0xf07da27a82c37088, 0x5d767327bb4e5a4c,
    0x964e858c91ba2655, 0x3a6a07f8d510f86f, 0xbbe226efb628afea, 0x890489f70a55368b,
    0xeadab0aba3b2dbe5, 0x2b45ac74ccea842e, 0x92c8ae6b464fc96f, 0x3b0b8bc90012929d,
    0xb77ada0617e3bbcb, 0x09ce6ebb40173744, 0xe55990879ddcaabd, 0xcc420a6a101d0515,
    0x8f57fa54c2a9eab6, 0x9fa946824a12232d, 0xb32df8e9f3546564, 0x47939822dc96abf9,
    0xdff9772470297ebd, 0x59787e2b93bc56f7, 0x8bfbea76c619ef36, 0x57eb4edb3c55b65a,
    0xaefae51477a06b03, 0xede622920b6b23f1, 0xdab99e59958885c4, 0xe95fab368e45eced,
    0x88b402f7fd75539b, 0x11dbcb0218ebb414, 0xaae103b5fcd2a881, 0xd652bdc29f26a119,
    0xd59944a37c0752a2, 0x4be76d3346f0495f, 0x857fcae62d8493a5, 0x6f70a4400c562ddb,
    0xa6dfbd9fb8e5b88e, 0xcb4ccd500f6bb952, 0xd097ad07a71f26b2, 0x7e2000a41346a7a7,
    0x825ecc24c873782f, 0x8ed400668c0c28c8, 0xa2f67f2dfa90563b, 0x728900802f0f32fa,
    0xcbb41ef979346bca, 0x4f2b40a03ad2ffb9, 0xfea126b7d78186bc, 0xe2f610c84987bfa8,
    0x9f24b832e6b0f436, 0x0dd9ca7d2df4d7c9, 0xc6ede63fa05d3143, 0x91503d1c79720dbb,
    0xf8a95fcf88747d94, 0x75a44c6397ce912a, 0x9b69dbe1b548ce7c, 0xc986afbe3ee11aba,
    0xc24452da229b021b, 0xfbe85badce996168, 0xf2d56790ab41c2a2, 0xfae27299423fb9c3,
    0x97c560ba6b0919a5, 0xdccd879fc967d41a, 0xbdb6b8e905cb600f, 0x5400e987bbc1c920,
    0xed246723473e3813, 0x290123e9aab23b68, 0x9436c0760c86e30b, 0xf9a0b6720aaf6521,
    0xb94470938fa89bce, 0xf808e40e8d5b3e69, 0xe7958cb87392c2c2, 0xb60b1d1230b20e04,
    0x90bd77f3483bb9b9, 0xb1c6f22b5e6f48c2, 0xb4ecd5f01a4aa828, 0x1e38aeb6360b1af3,
    0xe2280b6c20dd5232, 0x25c6da63c38de1b0, 0x8d590723948a535f, 0x579c487e5a38ad0e,
    0xb0af48ec79ace837, 0x2d835a9df0c6d851, 0xdcdb1b2798182244, 0xf8e431456cf88e65,
    0x8a08f0f8bf0f156b, 0x1b8e9ecb641b58ff, 0xac8b2d36eed2dac5, 0xe272467e3d222f3f,
    0xd7adf884aa879177, 0x5b0ed81dcc6abb0f, 0x86ccbb52ea94baea, 0x98e947129fc2b4e9,
    0xa87fea27a539e9a5, 0x3f2398d747b36224, 0xd29fe4b18e88640e, 0x8eec7f0d19a03aad,
    0x83a3eeeef9153e89, 0x1953cf68300424ac, 0xa48ceaaab75a8e2b, 0x5fa8c3423c052dd7,
    0xcdb02555653131b6, 0x3792f412cb06794d, 0x808e17555f3ebf11, 0xe2bbd88bbee40bd0,
    0xa0b19d2ab70e6ed6, 0x5b6aceaeae9d0ec4, 0xc8de047564d20a8b, 0xf245825a5a445275,
    0xfb158592be068d2e, 0xeed6e2f0f0d56712, 0x9ced737bb6c4183d, 0x55464dd69685606b,
    0xc428d05aa4751e4c, 0xaa97e14c3c26b886, 0xf53304714d9265df, 0xd53dd99f4b3066a8,
    0x993fe2c6d07b7fab, 0xe546a8038efe4029, 0xbf8fdb78849a5f96, 0xde98520472bdd033,
    0xef73d256a5c0f77c, 0x963e66858f6d4440, 0x95a8637627989aad, 0xdde7001379a44aa8,
    0xbb127c53b17ec159, 0x5560c018580d5d52, 0xe9d71b689dde71af, 0xaab8f01e6e10b4a6,
    0x9226712162ab070d, 0xcab3961304ca70e8, 0xb6b00d69bb55c8d1, 0x3d607b97c5fd0d22,
    0xe45c10c42a2b3b05, 0x8cb89a7db77c506a, 0x8eb98a7a9a5b04e3, 0x77f3608e92adb242,
    0xb267ed1940f1c61c, 0x55f038b237591ed3, 0xdf01e85f912e37a3, 0x6b6c46dec52f6688,
    0x8b61313bbabce2c6, 0x2323ac4b3b3da015, 0xae397d8aa96c1b77, 0xabec975e0a0d081a,
    0xd9c7dced53c72255, 0x96e7bd358c904a21, 0x881cea14545c7575, 0x7e50d64177da2e54,
    0xaa242499697392d2, 0xdde50bd1d5d0b9e9, 0xd4ad2dbfc3d07787, 0x955e4ec64b44e864,
    0x84ec3c97da624ab4, 0xbd5af13bef0b113e, 0xa6274bbdd0fadd61, 0xecb1ad8aeacdd58e,
    0xcfb11ead453994ba, 0x67de18eda5814af2, 0x81ceb32c4b43fcf4, 0x80eacf948770ced7,
    0xa2425ff75e14fc31, 0xa1258379a94d028d, 0xcad2f7f5359a3b3e, 0x096ee45813a04330,
    0xfd87b5f28300ca0d, 0x8bca9d6e188853fc, 0x9e74d1b791e07e48, 0x775ea264cf55347e,
    0xc612062576589dda, 0x95364afe032a819e, 0xf79687aed3eec551, 0x3a83ddbd83f52205,
    0x9abe14cd44753b52, 0xc4926a9672793543, 0xc16d9a0095928a27, 0x75b7053c0f178294,
    0xf1c90080baf72cb1, 0x5324c68b12dd6339, 0x971da05074da7bee, 0xd3f6fc16ebca5e04,
    0xbce5086492111aea, 0x88f4bb1ca6bcf585, 0xec1e4a7db69561a5, 0x2b31e9e3d06c32e6,
    0x9392ee8e921d5d07, 0x3aff322e62439fd0, 0xb877aa3236a4b449, 0x09befeb9fad487c3,
    0xe69594bec44de15b, 0x4c2ebe687989a9b4, 0x901d7cf73ab0acd9, 0x0f9d37014bf60a11,
    0xb424dc35095cd80f, 0x538484c19ef38c95, 0xe12e13424bb40e13, 0x2865a5f206b06fba,
    0x8cbccc096f5088cb, 0xf93f87b7442e45d4, 0xafebff0bcb24aafe, 0xf78f69a51539d749,
    0xdbe6fecebdedd5be, 0xb573440e5a884d1c, 0x89705f4136b4a597, 0x31680a88f8953031,
    0xabcc77118461cefc, 0xfdc20d2b36ba7c3e, 0xd6bf94d5e57a42bc, 0x3d32907604691b4d,
    0x8637bd05af6c69b5, 0xa63f9a49c2c1b110, 0xa7c5ac471b478423, 0x0fcf80dc33721d54,
    0xd1b71758e219652b, 0xd3c36113404ea4a9, 0x83126e978d4fdf3b, 0x645a1cac083126ea,
    0xa3d70a3d70a3d70a, 0x3d70a3d70a3d70a4, 0xcccccccccccccccc, 0xcccccccccccccccd,
    0x8000000000000000, 0x0000000000000000, 0xa000000000000000, 0x0000000000000000,
    0xc800000000000000, 0x0000000000000000, 0xfa00000000000000, 0x0000000000000000,
    0x9c40000000000000, 0x0000000000000000, 0xc350000000000000, 0x0000000000000000,
    0xf424000000000000, 0x0000000000000000, 0x9896800000000000, 0x0000000000000000,
    0xbebc200000000000, 0x0000000000000000, 0xee6b280000000000, 0x0000000000000000,
    0x9502f90000000000, 0x0000000000000000, 0xba43b74000000000, 0x0000000000000000,
    0xe8d4a51000000000, 0x0000000000000000, 0x9184e72a00000000, 0x0000000000000000,
    0xb5e620f480000000, 0x0000000000000000, 0xe35fa931a0000000, 0x0000000000000000,
    0x8e1bc9bf04000000, 0x0000000000000000, 0xb1a2bc2ec5000000, 0x0000000000000000,
    0xde0b6b3a76400000, 0x0000000000000000, 0x8ac7230489e80000, 0x0000000000000000,
    0xad78ebc5ac620000, 0x0000000000000000, 0xd8d726b7177a8000, 0x0000000000000000,
    0x878678326eac9000, 0x0000000000000000, 0xa968163f0a57b400, 0x0000000000000000,
    0xd3c21bcecceda100, 0x0000000000000000, 0x84595161401484a0, 0x0000000000000000,
    0xa56fa5b99019a5c8, 0x0000000000000000, 0xcecb8f27f4200f3a, 0x0000000000000000,
    0x813f3978f8940984, 0x4000000000000000, 0xa18f07d736b90be5, 0x5000000000000000,
    0xc9f2c9cd04674ede, 0xa400000000000000, 0xfc6f7c4045812296, 0x4d00000000000000,
    0x9dc5ada82b70b59d, 0xf020000000000000, 0xc5371912364ce305, 0x6c28000000000000,
    0xf684df56c3e01bc6, 0xc732000000000000, 0x9a130b963a6c115c, 0x3c7f400000000000,
    0xc097ce7bc90715b3, 0x4b9f100000000000, 0xf0bdc21abb48db20, 0x1e86d40000000000,
    0x96769950b50d88f4, 0x1314448000000000, 0xbc143fa4e250eb31, 0x17d955a000000000,
    0xeb194f8e1ae525fd, 0x5dcfab0800000000, 0x92efd1b8d0cf37be, 0x5aa1cae500000000,
    0xb7abc627050305ad, 0xf14a3d9e40000000, 0xe596b7b0c643c719, 0x6d9ccd05d0000000,
    0x8f7e32ce7bea5c6f, 0xe4820023a2000000, 0xb35dbf821ae4f38b, 0xdda2802c8a800000,
    0xe0352f62a19e306e, 0xd50b2037ad200000, 0x8c213d9da502de45, 0x4526f422cc340000,
    0xaf298d050e4395d6, 0x9670b12b7f410000, 0xdaf3f04651d47b4c, 0x3c0cdd765f114000,
    0x88d8762bf324cd0f, 0xa5880a69fb6ac800, 0xab0e93b6efee0053, 0x8eea0d047a457a00,
    0xd5d238a4abe98068, 0x72a4904598d6d880, 0x85a36366eb71f041, 0x47a6da2b7f864750,
    0xa70c3c40a64e6c51, 0x999090b65f67d924, 0xd0cf4b50cfe20765, 0xfff4b4e3f741cf6d,
    0x82818f1281ed449f, 0xbff8f10e7a8921a4, 0xa321f2d7226895c7, 0xaff72d52192b6a0d,
    0xcbea6f8ceb02bb39, 0x9bf4f8a69f764490, 0xfee50b7025c36a08, 0x02f236d04753d5b4,
    0x9f4f2726179a2245, 0x01d762422c946590, 0xc722f0ef9d80aad6, 0x424d3ad2b7b97ef5,
    0xf8ebad2b84e0d58b, 0xd2e0898765a7deb2, 0x9b934c3b330c8577, 0x63cc55f49f88eb2f,
    0xc2781f49ffcfa6d5, 0x3cbf6b71c76b25fb, 0xf316271c7fc3908a, 0x8bef464e3945ef7a,
    0x97edd871cfda3a56, 0x97758bf0e3cbb5ac, 0xbde94e8e43d0c8ec, 0x3d52eeed1cbea317,
    0xed63a231d4c4fb27, 0x4ca7aaa863ee4bdd, 0x945e455f24fb1cf8, 0x8fe8caa93e74ef6a,
    0xb975d6b6ee39e436, 0xb3e2fd538e122b44, 0xe7d34c64a9c85d44, 0x60dbbca87196b616,
    0x90e40fbeea1d3a4a, 0xbc8955e946fe31cd, 0xb51d13aea4a488dd, 0x6babab6398bdbe41,
    0xe264589a4dcdab14, 0xc696963c7eed2dd1, 0x8d7eb76070a08aec, 0xfc1e1de5cf543ca2,
    0xb0de65388cc8ada8, 0x3b25a55f43294bcb, 0xdd15fe86affad912, 0x49ef0eb713f39ebe,
    0x8a2dbf142dfcc7ab, 0x6e3569326c784337, 0xacb92ed9397bf996, 0x49c2c37f07965404,
    0xd7e77a8f87daf7fb, 0xdc33745ec97be906, 0x86f0ac99b4e8dafd, 0x69a028bb3ded71a3,
    0xa8acd7c0222311bc, 0xc40832ea0d68ce0c, 0xd2d80db02aabd62b, 0xf50a3fa490c30190,
    0x83c7088e1aab65db, 0x792667c6da79e0fa, 0xa4b8cab1a1563f52, 0x577001b891185938,
    0xcde6fd5e09abcf26, 0xed4c0226b55e6f86, 0x80b05e5ac60b6178, 0x544f8158315b05b4,
    0xa0dc75f1778e39d6, 0x696361ae3db1c721, 0xc913936dd571c84c, 0x03bc3a19cd1e38e9,
    0xfb5878494ace3a5f, 0x04ab48a04065c723, 0x9d174b2dcec0e47b, 0x62eb0d64283f9c76,
    0xc45d1df942711d9a, 0x3ba5d0bd324f8394, 0xf5746577930d6500, 0xca8f44ec7ee36479,
    0x9968bf6abbe85f20, 0x7e998b13cf4e1ecb, 0xbfc2ef456ae276e8, 0x9e3fedd8c321a67e,
    0xefb3ab16c59b14a2, 0xc5cfe94ef3ea101e, 0x95d04aee3b80ece5, 0xbba1f1d158724a12,
    0xbb445da9ca61281f, 0x2a8a6e45ae8edc97, 0xea1575143cf97226, 0xf52d09d71a3293bd,
    0x924d692ca61be758, 0x593c2626705f9c56, 0xb6e0c377cfa2e12e, 0x6f8b2fb00c77836c,
    0xe498f455c38b997a, 0x0b6dfb9c0f956447, 0x8edf98b59a373fec, 0x4724bd4189bd5eac,
    0xb2977ee300c50fe7, 0x58edec91ec2cb657, 0xdf3d5e9bc0f653e1, 0x2f2967b66737e3ed,
    0x8b865b215899f46c, 0xbd79e0d20082ee74, 0xae67f1e9aec07187, 0xecd8590680a3aa11,
    0xda01ee641a708de9, 0xe80e6f4820cc9495, 0x884134fe908658b2, 0x3109058d147fdcdd,
    0xaa51823e34a7eede, 0xbd4b46f0599fd415, 0xd4e5e2cdc1d1ea96, 0x6c9e18ac7007c91a,
    0x850fadc09923329e, 0x03e2cf6bc604ddb0, 0xa6539930bf6bff45, 0x84db8346b786151c,
    0xcfe87f7cef46ff16, 0xe612641865679a63, 0x81f14fae158c5f6e, 0x4fcb7e8f3f60c07e,
    0xa26da3999aef7749, 0xe3be5e330f38f09d, 0xcb090c8001ab551c, 0x5cadf5bfd3072cc5,
    0xfdcb4fa002162a63, 0x73d9732fc7c8f7f6, 0x9e9f11c4014dda7e, 0x2867e7fddcdd9afa,
    0xc646d63501a1511d, 0xb281e1fd541501b8, 0xf7d88bc24209a565, 0x1f225a7ca91a4226,
    0x9ae757596946075f, 0x3375788de9b06958, 0xc1a12d2fc3978937, 0x0052d6b1641c83ae,
    0xf209787bb47d6b84, 0xc0678c5dbd23a49a, 0x9745eb4d50ce6332, 0xf840b7ba963646e0,
    0xbd176620a501fbff, 0xb650e5a93bc3d898, 0xec5d3fa8ce427aff, 0xa3e51f138ab4cebe,
    0x93ba47c980e98cdf, 0xc66f336c36b10137, 0xb8a8d9bbe123f017, 0xb80b0047445d4184,
    0xe6d3102ad96cec1d, 0xa60dc059157491e5, 0x9043ea1ac7e41392, 0x87c89837ad68db2f,
    0xb454e4a179dd1877, 0x29babe4598c311fb, 0xe16a1dc9d8545e94, 0xf4296dd6fef3d67a,
    0x8ce2529e2734bb1d, 0x1899e4a65f58660c, 0xb01ae745b101e9e4, 0x5ec05dcff72e7f8f,
    0xdc21a1171d42645d, 0x76707543f4fa1f73, 0x899504ae72497eba, 0x6a06494a791c53a8,
    0xabfa45da0edbde69, 0x0487db9d17636892, 0xd6f8d7509292d603, 0x45a9d2845d3c42b6,
    0x865b86925b9bc5c2, 0x0b8a2392ba45a9b2, 0xa7f26836f282b732, 0x8e6cac7768d7141e,
    0xd1ef0244af2364ff, 0x3207d795430cd926, 0x8335616aed761f1f, 0x7f44e6bd49e807b8,
    0xa402b9c5a8d3a6e7, 0x5f16206c9c6209a6, 0xcd036837130890a1, 0x36dba887c37a8c0f,
    0x802221226be55a64, 0xc2494954da2c9789, 0xa02aa96b06deb0fd, 0xf2db9baa10b7bd6c,
    0xc83553c5c8965d3d, 0x6f92829494e5acc7, 0xfa42a8b73abbf48c, 0xcb772339ba1f17f9,
    0x9c69a97284b578d7, 0xff2a760414536efb, 0xc38413cf25e2d70d, 0xfef5138519684aba,
    0xf46518c2ef5b8cd1, 0x7eb258665fc25d69, 0x98bf2f79d5993802, 0xef2f773ffbd97a61,
    0xbeeefb584aff8603, 0xaafb550ffacfd8fa, 0xeeaaba2e5dbf6784, 0x95ba2a53f983cf38,
    0x952ab45cfa97a0b2, 0xdd945a747bf26183, 0xba756174393d88df, 0x94f971119aeef9e4,
    0xe912b9d1478ceb17, 0x7a37cd5601aab85d, 0x91abb422ccb812ee, 0xac62e055c10ab33a,
    0xb616a12b7fe617aa, 0x577b986b314d6009, 0xe39c49765fdf9d94, 0xed5a7e85fda0b80b,
    0x8e41ade9fbebc27d, 0x14588f13be847307, 0xb1d219647ae6b31c, 0x596eb2d8ae258fc8,
    0xde469fbd99a05fe3, 0x6fca5f8ed9aef3bb, 0x8aec23d680043bee, 0x25de7bb9480d5854,
    0xada72ccc20054ae9, 0xaf561aa79a10ae6a, 0xd910f7ff28069da4, 0x1b2ba1518094da04,
    0x87aa9aff79042286, 0x90fb44d2f05d0842, 0xa99541bf57452b28, 0x353a1607ac744a53,
    0xd3fa922f2d1675f2, 0x42889b8997915ce8, 0x847c9b5d7c2e09b7, 0x69956135febada11,
    0xa59bc234db398c25, 0x43fab9837e699095, 0xcf02b2c21207ef2e, 0x94f967e45e03f4bb,
    0x8161afb94b44f57d, 0x1d1be0eebac278f5, 0xa1ba1ba79e1632dc, 0x6462d92a69731732,
    0xca28a291859bbf93, 0x7d7b8f7503cfdcfe, 0xfcb2cb35e702af78, 0x5cda735244c3d43e,
    0x9defbf01b061adab, 0x3a0888136afa64a7, 0xc56baec21c7a1916, 0x088aaa1845b8fdd0,
    0xf6c69a72a3989f5b, 0x8aad549e57273d45, 0x9a3c2087a63f6399, 0x36ac54e2f678864b,
    0xc0cb28a98fcf3c7f, 0x84576a1bb416a7dd, 0xf0fdf2d3f3c30b9f, 0x656d44a2a11c51d5,
    0x969eb7c47859e743, 0x9f644ae5a4b1b325, 0xbc4665b596706114, 0x873d5d9f0dde1fee,
    0xeb57ff22fc0c7959, 0xa90cb506d155a7ea, 0x9316ff75dd87cbd8, 0x09a7f12442d588f2,
    0xb7dcbf5354e9bece, 0x0c11ed6d538aeb2f, 0xe5d3ef282a242e81, 0x8f1668c8a86da5fa,
    0x8fa475791a569d10, 0xf96e017d694487bc, 0xb38d92d760ec4455, 0x37c981dcc395a9ac,
    0xe070f78d3927556a, 0x85bbe253f47b1417, 0x8c469ab843b89562, 0x93956d7478ccec8e,
    0xaf58416654a6babb, 0x387ac8d1970027b2, 0xdb2e51bfe9d0696a, 0x06997b05fcc0319e,
    0x88fcf317f22241e2, 0x441fece3bdf81f03, 0xab3c2fddeeaad25a, 0xd527e81cad7626c3,
    0xd60b3bd56a5586f1, 0x8a71e223d8d3b074, 0x85c7056562757456, 0xf6872d5667844e49,
    0xa738c6bebb12d16c, 0xb428f8ac016561db, 0xd106f86e69d785c7, 0xe13336d701beba52,
    0x82a45b450226b39c, 0xecc0024661173473, 0xa34d721642b06084, 0x27f002d7f95d0190,
    0xcc20ce9bd35c78a5, 0x31ec038df7b441f4, 0xff290242c83396ce, 0x7e67047175a15271,
    0x9f79a169bd203e41, 0x0f0062c6e984d386, 0xc75809c42c684dd1, 0x52c07b78a3e60868,
    0xf92e0c3537826145, 0xa7709a56ccdf8a82, 0x9bbcc7a142b17ccb, 0x88a66076400bb691,
    0xc2abf989935ddbfe, 0x6acff893d00ea435, 0xf356f7ebf83552fe, 0x0583f6b8c4124d43,
    0x98165af37b2153de, 0xc3727a337a8b704a, 0xbe1bf1b059e9a8d6, 0x744f18c0592e4c5c,
    0xeda2ee1c7064130c, 0x1162def06f79df73, 0x9485d4d1c63e8be7, 0x8addcb5645ac2ba8,
    0xb9a74a0637ce2ee1, 0x6d953e2bd7173692, 0xe8111c87c5c1ba99, 0xc8fa8db6ccdd0437,
    0x910ab1d4db9914a0, 0x1d9c9892400a22a2, 0xb54d5e4a127f59c8, 0x2503beb6d00cab4b,
    0xe2a0b5dc971f303a, 0x2e44ae64840fd61d, 0x8da471a9de737e24, 0x5ceaecfed289e5d2,
    0xb10d8e1456105dad, 0x7425a83e872c5f47, 0xdd50f1996b947518, 0xd12f124e28f77719,
    0x8a5296ffe33cc92f, 0x82bd6b70d99aaa6f, 0xace73cbfdc0bfb7b, 0x636cc64d1001550b,
    0xd8210befd30efa5a, 0x3c47f7e05401aa4e, 0x8714a775e3e95c78, 0x65acfaec34810a71,
    0xa8d9d1535ce3b396, 0x7f1839a741a14d0d, 0xd31045a8341ca07c, 0x1ede48111209a050,
    0x83ea2b892091e44d, 0x934aed0aab460432, 0xa4e4b66b68b65d60, 0xf81da84d5617853f,
    0xce1de40642e3f4b9, 0x36251260ab9d668e, 0x80d2ae83e9ce78f3, 0xc1d72b7c6b426019,
    0xa1075a24e4421730, 0xb24cf65b8612f81f, 0xc94930ae1d529cfc, 0xdee033f26797b627,
    0xfb9b7cd9a4a7443c, 0x169840ef017da3b1, 0x9d412e0806e88aa5, 0x8e1f289560ee864e,
    0xc491798a08a2ad4e, 0xf1a6f2bab92a27e2, 0xf5b5d7ec8acb58a2, 0xae10af696774b1db,
    0x9991a6f3d6bf1765, 0xacca6da1e0a8ef29, 0xbff610b0cc6edd3f, 0x17fd090a58d32af3,
    0xeff394dcff8a948e, 0xddfc4b4cef07f5b0, 0x95f83d0a1fb69cd9, 0x4abdaf101564f98e,
    0xbb764c4ca7a4440f, 0x9d6d1ad41abe37f1, 0xea53df5fd18d5513, 0x84c86189216dc5ed,
    0x92746b9be2f8552c, 0x32fd3cf5b4e49bb4, 0xb7118682dbb66a77, 0x3fbc8c33221dc2a1,
    0xe4d5e82392a40515, 0x0fabaf3feaa5334a, 0x8f05b1163ba6832d, 0x29cb4d87f2a7400e,
    0xb2c71d5bca9023f8, 0x743e20e9ef511012, 0xdf78e4b2bd342cf6, 0x914da9246b255416,
    0x8bab8eefb6409c1a, 0x1ad089b6c2f7548e, 0xae9672aba3d0c320, 0xa184ac2473b529b1,
    0xda3c0f568cc4f3e8, 0xc9e5d72d90a2741e, 0x8865899617fb1871, 0x7e2fa67c7a658892,
    0xaa7eebfb9df9de8d, 0xddbb901b98feeab7, 0xd51ea6fa85785631, 0x552a74227f3ea565,
    0x8533285c936b35de, 0xd53a88958f87275f, 0xa67ff273b8460356, 0x8a892abaf368f137,
    0xd01fef10a657842c, 0x2d2b7569b0432d85, 0x8213f56a67f6b29b, 0x9c3b29620e29fc73,
    0xa298f2c501f45f42, 0x8349f3ba91b47b8f, 0xcb3f2f7642717713, 0x241c70a936219a73,
    0xfe0efb53d30dd4d7, 0xed238cd383aa0110, 0x9ec95d1463e8a506, 0xf4363804324a40aa,
    0xc67bb4597ce2ce48, 0xb143c6053edcd0d5, 0xf81aa16fdc1b81da, 0xdd94b7868e94050a,
    0x9b10a4e5e9913128, 0xca7cf2b4191c8326, 0xc1d4ce1f63f57d72, 0xfd1c2f611f63a3f0,
    0xf24a01a73cf2dccf, 0xbc633b39673c8cec, 0x976e41088617ca01, 0xd5be0503e085d813,
    0xbd49d14aa79dbc82, 0x4b2d8644d8a74e18, 0xec9c459d51852ba2, 0xddf8e7d60ed1219e,
    0x93e1ab8252f33b45, 0xcabb90e5c942b503, 0xb8da1662e7b00a17, 0x3d6a751f3b936243,
    0xe7109bfba19c0c9d, 0x0cc512670a783ad4, 0x906a617d450187e2, 0x27fb2b80668b24c5,
    0xb484f9dc9641e9da, 0xb1f9f660802dedf6, 0xe1a63853bbd26451, 0x5e7873f8a0396973,
    0x8d07e33455637eb2, 0xdb0b487b6423e1e8, 0xb049dc016abc5e5f, 0x91ce1a9a3d2cda62,
    0xdc5c5301c56b75f7, 0x7641a140cc7810fb, 0x89b9b3e11b6329ba, 0xa9e904c87fcb0a9d,
    0xac2820d9623bf429, 0x546345fa9fbdcd44, 0xd732290fbacaf133, 0xa97c177947ad4095,
    0x867f59a9d4bed6c0, 0x49ed8eabcccc485d, 0xa81f301449ee8c70, 0x5c68f256bfff5a74,
    0xd226fc195c6a2f8c, 0x73832eec6fff3111, 0x83585d8fd9c25db7, 0xc831fd53c5ff7eab,
    0xa42e74f3d032f525, 0xba3e7ca8b77f5e55, 0xcd3a1230c43fb26f, 0x28ce1bd2e55f35eb,
    0x80444b5e7aa7cf85, 0x7980d163cf5b81b3, 0xa0555e361951c366, 0xd7e105bcc332621f,
    0xc86ab5c39fa63440, 0x8dd9472bf3fefaa7, 0xfa856334878fc150, 0xb14f98f6f0feb951,
    0x9c935e00d4b9d8d2, 0x6ed1bf9a569f33d3, 0xc3b8358109e84f07, 0x0a862f80ec4700c8,
    0xf4a642e14c6262c8, 0xcd27bb612758c0fa, 0x98e7e9cccfbd7dbd, 0x8038d51cb897789c,
    0xbf21e44003acdd2c, 0xe0470a63e6bd56c3, 0xeeea5d5004981478, 0x1858ccfce06cac74,
    0x95527a5202df0ccb, 0x0f37801e0c43ebc8, 0xbaa718e68396cffd, 0xd30560258f54e6ba,
    0xe950df20247c83fd, 0x47c6b82ef32a2069, 0x91d28b7416cdd27e, 0x4cdc331d57fa5441,
    0xb6472e511c81471d, 0xe0133fe4adf8e952, 0xe3d8f9e563a198e5, 0x58180fddd97723a6,
    0x8e679c2f5e44ff8f, 0x570f09eaa7ea7648,
};

/* 10^0 .. 10^22, each exact in a double */
static const double exact_pow10[23] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};

/* The bits of the double nearest w 10^q, ties to even, for 0 < w < 10^19 and
 * q in [POW5_MIN_Q, POW5_MAX_Q]: fast_float's compute_float for binary64.
 * The 128-bit product of w and 5^q (truncated) always decides the rounding
 * (Mushtak and Lemire), so there is no fallback. */
static uint64_t eisel_lemire(uint64_t w, int64_t q)
{
    const int lz = __builtin_clzll(w);
    w <<= lz;
    const uint64_t *pow5 = pow5_128 + 2 * (q - POW5_MIN_Q);
    __uint128_t first = (__uint128_t)w * pow5[0];
    uint64_t high = (uint64_t)(first >> 64), low = (uint64_t)first;
    /* the low 9 of the 55 bits wanted all ones: the truncated bits may carry */
    if ((high & 0x1FF) == 0x1FF) {
        uint64_t second = (uint64_t)(((__uint128_t)w * pow5[1]) >> 64);
        low += second;
        if (second > low)
            high++;
    }
    const int upper = (int)(high >> 63);
    const int shift = upper + 64 - 52 - 3;
    uint64_t mantissa = high >> shift;
    /* floor(q log2(10)) + 63, plus the biased exponent's 1023 */
    int64_t power2 = ((217706 * q) >> 16) + 63 + upper - lz + 1023;
    if (power2 <= 0) { /* subnormal, or zero */
        if (-power2 + 1 >= 64)
            return 0;
        mantissa >>= -power2 + 1;
        mantissa += mantissa & 1;
        mantissa >>= 1;
        /* rounding up may reach the smallest normal, 1 << 52 with exponent 1 */
        return mantissa;
    }
    /* exactly halfway, which only 5^q of one word can give: round down to even */
    if (low <= 1 && q >= -4 && q <= 23 && (mantissa & 3) == 1 && (mantissa << shift) == high)
        mantissa &= ~(uint64_t)1;
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if (mantissa >= ((uint64_t)2 << 52)) {
        mantissa = (uint64_t)1 << 52;
        power2++;
    }
    mantissa &= ~((uint64_t)1 << 52);
    if (power2 >= 0x7FF)
        return (uint64_t)0x7FF << 52;
    return ((uint64_t)power2 << 52) | mantissa;
}

/* tokens strtod reads from a copy, with its terminating NUL */
#define STRTOD_MAX 256

static inline int is_digit(char c)
{
    return (unsigned char)(c - '0') < 10;
}

/* Reads the number [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)? at p (before end) into
 * *value as float() does, and returns the pointer past it, or NULL when p
 * holds no such number.  Up to 19 significant digits are converted here; a
 * longer one goes to strtod, which must end where the token ends, so a locale
 * whose decimal point is not '.' rejects it rather than misreading it. */
static const char *parse_number(const char *p, const char *end, double *value)
{
    const char *start = p;
    const int negative = p < end && *p == '-';
    if (p < end && (*p == '+' || *p == '-'))
        p++;
    uint64_t w = 0; /* the significant digits, exact while there are at most 19 */
    int64_t significant = 0, digits = 0, fraction = 0;
    for (; p < end && is_digit(*p); p++, digits++) {
        w = 10 * w + (uint64_t)(*p - '0');
        significant += w != 0;
    }
    if (p < end && *p == '.') {
        for (p++; p < end && is_digit(*p); p++, fraction++) {
            w = 10 * w + (uint64_t)(*p - '0');
            significant += w != 0;
        }
    }
    if (digits + fraction == 0)
        return NULL;
    int64_t exponent = 0;
    if (p < end && (*p == 'e' || *p == 'E')) {
        p++;
        const int negative_exponent = p < end && *p == '-';
        if (p < end && (*p == '+' || *p == '-'))
            p++;
        if (p == end || !is_digit(*p))
            return NULL;
        /* capped far beyond any exponent that is not zero or infinity */
        for (; p < end && is_digit(*p); p++)
            if (exponent < ((int64_t)1 << 40))
                exponent = 10 * exponent + (*p - '0');
        if (negative_exponent)
            exponent = -exponent;
    }
    const int64_t q = exponent - fraction;
    double v;
    if (significant > 19) {
        char copy[STRTOD_MAX];
        const size_t len = (size_t)(p - start);
        if (len >= STRTOD_MAX)
            return NULL;
        memcpy(copy, start, len);
        copy[len] = '\0';
        char *stop;
        *value = strtod(copy, &stop);
        return stop == copy + len ? p : NULL;
    }
    if (w == 0) {
        v = 0.0;
    } else if (w <= ((uint64_t)1 << 53) && q >= -22 && q <= 22) {
        /* Clinger: w and 10^|q| are exact, so one rounding gives the nearest */
        v = q < 0 ? (double)w / exact_pow10[-q] : (double)w * exact_pow10[q];
    } else if (q < POW5_MIN_Q) {
        v = 0.0; /* below 10^19 10^-343, under half the least subnormal */
    } else if (q > POW5_MAX_Q) {
        v = INFINITY;
    } else {
        uint64_t bits = eisel_lemire(w, q);
        memcpy(&v, &bits, sizeof v);
    }
    *value = negative ? -v : v;
    return p;
}

/* Parses the data rows buf[0..len-1] of a plain sample CSV: each row holds
 * exactly n_cols comma-separated fields and ends with "\n", "\r\n" or the end
 * of the buffer.  Field j of row r goes to out[r * n_cols + j]: the bare 0 or 1
 * as 0.0 or 1.0 when j is d_col, else a number as parse_number reads it.
 * Returns the number of rows, or -1 when the buffer holds anything else (or
 * more than cap rows), for the caller's general reader to take over. */
int64_t tr_parse_csv(const char *buf, int64_t len, int64_t n_cols, int64_t d_col, double *out, int64_t cap)
{
    const char *p = buf, *end = buf + len;
    int64_t rows = 0;
    for (; p < end; rows++) {
        if (rows == cap)
            return -1;
        for (int64_t j = 0; j < n_cols; j++) {
            if (j == d_col) {
                if (p == end || (*p != '0' && *p != '1'))
                    return -1;
                out[rows * n_cols + j] = (double)(*p++ - '0');
            } else if (!(p = parse_number(p, end, out + rows * n_cols + j))) {
                return -1;
            }
            if (j + 1 < n_cols) {
                if (p == end || *p++ != ',')
                    return -1;
            } else if (p < end) {
                if (*p == '\r')
                    p++;
                if (p == end || *p++ != '\n')
                    return -1;
            }
        }
    }
    return rows;
}

/* The normal law and the elementwise loops on it are built at O3, which
 * vectorizes them (see VECTORIZED), assuming no trapping FP exceptions,
 * which lets a selection compute both its sides.  Neither changes a value. */
#pragma GCC push_options
#pragma GCC optimize("O3", "no-trapping-math")

/* exp(x) by the method and constants of fdlibm's e_exp.c (Copyright (C)
 * 1993 by Sun Microsystems, Inc.; "Permission to use, copy, modify, and
 * distribute this software is freely granted, provided that this notice is
 * preserved"): k = rint(x / ln 2), r = x - k ln 2 with ln 2 in two parts, a
 * degree-5 Remez fit for e^r, and 2^k applied as ldexp does, rounding a
 * subnormal result once.  Only rint, ldexp and + - * / touch a double, so
 * every host gets the same bits; they are within 1 ulp of libm's.
 *
 * It takes no branch, so the loops that call it vectorize: every path is
 * computed and the result selected.  rint(v) is (v + 1.5 2^52) - 1.5 2^52,
 * which rounds to the nearest integer, ties to even, for |v| < 2^51, and the
 * sum's low bits hold that integer.  ldexp(y, k) (y in [0.7, 1.5)) is y
 * times 2^k built from its bits where that product is normal, so exact;
 * past 2^1023 it is y 2^(k-1) 2, and below 2^-1021, y 2^(k+54) 2^-54, one
 * rounding (fdlibm's own steps). */
static const double LN2_HI = 0x1.62e42fee00000p-1, LN2_LO = 0x1.a39ef35793c76p-33,
                    INV_LN2 = 0x1.71547652b82fep+0, ROUND = 0x1.8p52;
static const double EXP_P1 = 0x1.555555555553ep-3, EXP_P2 = -0x1.6c16c16bebd93p-9,
                    EXP_P3 = 0x1.1566aaf25de2cp-14, EXP_P4 = -0x1.bbd41c5d26bf1p-20,
                    EXP_P5 = 0x1.6376972bea4d0p-25;
/* the largest x whose exp is finite, and the least whose exp is not 0 */
static const double EXP_MAX = 0x1.62e42fefa39efp+9, EXP_MIN = -0x1.74910d52d3051p+9;
/* the bits of ROUND; those of ROUND + e, for an integer |e| < 2^51, are
 * ROUND_BITS + e */
#define ROUND_BITS UINT64_C(0x4338000000000000)

static inline double own_exp(double x)
{
    const double xc = x < EXP_MIN ? EXP_MIN : x > EXP_MAX ? EXP_MAX : x;
    const double k = (xc * INV_LN2 + ROUND) - ROUND;
    const double hi = xc - k * LN2_HI, lo = k * LN2_LO, r = hi - lo, t = r * r;
    const double c = r - t * (EXP_P1 + t * (EXP_P2 + t * (EXP_P3 + t * (EXP_P4 + t * EXP_P5))));
    const double y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
    const double e = (k - (k > 1023.0 ? 1.0 : 0.0)) + (k < -1021.0 ? 54.0 : 0.0);
    const double post = k > 1023.0 ? 2.0 : k < -1021.0 ? 0x1p-54 : 1.0;
    const double er = e + ROUND;
    uint64_t bits;
    memcpy(&bits, &er, sizeof bits);
    bits = (bits - ROUND_BITS + 1023) << 52;
    double scale;
    memcpy(&scale, &bits, sizeof scale);
    const double v = (y * scale) * post;
    return x != x ? x : x > EXP_MAX ? INFINITY : x < EXP_MIN ? 0.0 : v;
}

/* log sqrt(2 pi), rounded */
static const double LOG_SQRT_2PI = 0x1.d67f1c864beb5p-1;

/* The standard normal density phi(u) = exp(-u^2 / 2 - log sqrt(2 pi)), one
 * exp and no division. */
static inline double normal_pdf(double u)
{
    return own_exp(-0.5 * (u * u) - LOG_SQRT_2PI);
}

/* W. J. Cody's rational Chebyshev fits of erf and erfc (Math. Comp. 23,
 * 1969) as cephes's ndtr.c holds them (Cephes Math Library 2.9, Copyright
 * 1984-2000 Stephen L. Moshier), which scipy.special.ndtr evaluates too:
 * erfc(z) = exp(-z^2) P(z) / Q(z) for 1 <= z < 8 and exp(-z^2) R(z) / S(z)
 * beyond, erf(x) = x T(x^2) / U(x^2) for |x| < 1; Q, S and U have a leading
 * coefficient 1, not stored. */
static const double NDTR_P[9] = {
    2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
    4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
    9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2};
static const double NDTR_Q[8] = {
    1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
    9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
    1.65666309194161350182E3, 5.57535340817727675546E2};
static const double NDTR_R[6] = {
    5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
    6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0};
static const double NDTR_S[6] = {
    2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
    1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0};
static const double NDTR_T[5] = {
    9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
    7.00332514112805075473E3, 5.55923013010394962768E4};
static const double NDTR_U[5] = {
    3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
    2.26290000613890934246E4, 4.92673942608635921086E4};
/* 1 / sqrt(2) rounded, and cephes's MAXLOG, log(DBL_MAX) rounded */
static const double SQRT1_2 = 0x1.6a09e667f3bcdp-1, MAXLOG = 0x1.62e42fefa39efp+9;

/* c[0] x^len-1 + ... + c[len-1] by Horner's rule, and the same with a
 * leading coefficient 1 before c */
static inline double poly(double x, const double *c, int len)
{
    double a = c[0];
    for (int i = 1; i < len; i++)
        a = a * x + c[i];
    return a;
}

static inline double poly1(double x, const double *c, int len)
{
    double a = x + c[0];
    for (int i = 1; i < len; i++)
        a = a * x + c[i];
    return a;
}

/* The standard normal CDF as cephes's ndtr computes it, with own_exp:
 *   |x| < 1/sqrt 2:  1/2 + erf(x) / 2, x = a / sqrt 2
 *   |x| < 1:         erfc(|x|) = 1 - erf(|x|)
 *   -x^2 < -MAXLOG:  erfc(|x|) = 0
 *   |x| < 8:         erfc(|x|) = exp(-x^2) P(|x|) / Q(|x|), else R / S
 * and Phi = erfc(|x|) / 2, or 1 less that for x > 0.  Every branch is
 * computed and one selected, so it takes no branch either; erf(|x|) is
 * |erf(x)| bit for bit, as the fit is odd. */
static inline double normal_cdf(double a)
{
    const double x = a * SQRT1_2, z = fabs(x), w = x * x, zz = -z * z;
    const double erf_x = x * poly(w, NDTR_T, 5) / poly1(w, NDTR_U, 5);
    const double ex = own_exp(zz);
    const double near = ex * poly(z, NDTR_P, 9) / poly1(z, NDTR_Q, 8);
    const double far = ex * poly(z, NDTR_R, 6) / poly1(z, NDTR_S, 6);
    const double e = z < 1.0 ? 1.0 - fabs(erf_x) : zz < -MAXLOG ? 0.0 : z < 8.0 ? near : far;
    const double y = 0.5 * e;
    return z < SQRT1_2 ? 0.5 + 0.5 * erf_x : x > 0.0 ? 1.0 - y : y;
}

/* Rows per block.  Each block's terms are computed by a loop of exactly
 * BLOCK lanes, which vectorizes with no remainder loop, into a stack buffer;
 * a last, partial block is copied into padded buffers first, and its spare
 * lanes are never read.  The terms are then summed in row order. */
#define BLOCK 256

/* The elementwise loops, built for the widest vectors the CPU has (the
 * loader picks one at load time); every lane does the scalar arithmetic, so
 * the width changes no bit. */
#define VECTORIZED __attribute__((target_clones("avx512f", "avx2", "default")))

/* g[i] Phi(u) at u = (x[i] - t[i]) / sigma */
VECTORIZED static void cdf_terms(const double *restrict x, const double *restrict g,
                                 const double *restrict t, double sigma, double *restrict out)
{
    for (int i = 0; i < BLOCK; i++)
        out[i] = g[i] * normal_cdf((x[i] - t[i]) / sigma);
}

/* g[i] phi(u) and g[i] ((-c) phi(u)), c being u clipped to [-40, 40] */
VECTORIZED static void pdf_terms(const double *restrict x, const double *restrict g,
                                 const double *restrict t, double sigma, double *restrict out0,
                                 double *restrict out1)
{
    for (int i = 0; i < BLOCK; i++) {
        const double u = (x[i] - t[i]) / sigma;
        const double c = u < -40.0 ? -40.0 : u > 40.0 ? 40.0 : u;
        const double e = normal_pdf(u);
        out0[i] = g[i] * e;
        out1[i] = g[i] * ((-c) * e);
    }
}

#pragma GCC pop_options

/* v[lo..lo+len-1] itself when it fills a block, else a copy padded with 0 */
static const double *block_of(const double *v, int64_t lo, int len, double *pad)
{
    if (len == BLOCK)
        return v + lo;
    memcpy(pad, v + lo, (size_t)len * sizeof *pad);
    memset(pad + len, 0, (size_t)(BLOCK - len) * sizeof *pad);
    return pad;
}

/* a + v[0] + ... + v[len-1], added in order */
static inline double add_in_order(double a, const double *v, int len)
{
    for (int i = 0; i < len; i++)
        a = a + v[i];
    return a;
}

/* The normal CDF kernel's k, k' and k'' elementwise at z[0..m-1]:
 * out[i] = Phi(z[i]), out[m + i] = phi(z[i]) and out[2 m + i] = (-c)
 * phi(z[i]), c being z[i] clipped to [-40, 40]: the terms tr_smoothed sums,
 * of rows z of weight 1 at the threshold 0 with sigma 1, as (z - 0) / 1 is
 * z bit for bit, signed zeros too. */
void tr_normal(const double *z, int64_t m, double *out)
{
    double ones[BLOCK], zeros[BLOCK], pad[BLOCK], cdf[BLOCK], pdf[BLOCK], k2[BLOCK];
    for (int i = 0; i < BLOCK; i++) {
        ones[i] = 1.0;
        zeros[i] = 0.0;
    }
    for (int64_t lo = 0; lo < m; lo += BLOCK) {
        const int len = m - lo < BLOCK ? (int)(m - lo) : BLOCK;
        const double *zb = block_of(z, lo, len, pad);
        cdf_terms(zb, ones, zeros, 1.0, cdf);
        pdf_terms(zb, ones, zeros, 1.0, pdf, k2);
        memcpy(out + lo, cdf, (size_t)len * sizeof *out);
        memcpy(out + m + lo, pdf, (size_t)len * sizeof *out);
        memcpy(out + 2 * m + lo, k2, (size_t)len * sizeof *out);
    }
}

/* The sums behind the smoothed objective with the normal CDF kernel, at
 * each threshold t[j], over rows i with u = (x[i] - t[j]) / sigma:
 *   order 0: out[j] = sum g[i] Phi(u)
 *   order 1: out[j] = sum g[i] phi(u) and out[m + j] = sum g[i] ((-c) phi(u)),
 *            c being u clipped to [-40, 40]; both from one phi per row
 * (the kernel's k, k' and k'').  phi(u) is 0 wherever |u| > 38.6, so the
 * clip only makes u = +-inf give 0, not NaN.  Each sum runs in row order
 * from its first term, n >= 1, as np.cumsum does. */
void tr_smoothed(const double *x, const double *g, int64_t n, double sigma, const double *t, int64_t m,
                 int64_t order, double *out)
{
    double terms0[BLOCK], terms1[BLOCK], at[BLOCK], pad_x[BLOCK], pad_g[BLOCK];
    for (int64_t j = 0; j < m; j++) {
        double a = 0.0, b = 0.0;
        for (int i = 0; i < BLOCK; i++)
            at[i] = t[j];
        for (int64_t lo = 0; lo < n; lo += BLOCK) {
            const int len = n - lo < BLOCK ? (int)(n - lo) : BLOCK, first = lo == 0;
            const double *xb = block_of(x, lo, len, pad_x), *gb = block_of(g, lo, len, pad_g);
            if (order == 0) {
                cdf_terms(xb, gb, at, sigma, terms0);
            } else {
                pdf_terms(xb, gb, at, sigma, terms0, terms1);
                b = add_in_order(first ? terms1[0] : b, terms1 + first, len - first);
            }
            a = add_in_order(first ? terms0[0] : a, terms0 + first, len - first);
        }
        out[j] = a;
        if (order != 0)
            out[m + j] = b;
    }
}

/* The Gaussian-weighted local polynomial fit with p = degree + 1
 * coefficients (p <= 4) at point: least squares of s_i y_i on the rows
 * s_i (1, u_i, ..., u_i^(p-1)), u_i = (x[i] - point) / bw and s_i =
 * sqrt(phi(u_i)), each power the one before times u_i.  work holds the n x
 * (p + 1) design beside its response, row-major; n > p.  The solve is
 * Householder QR, as LAPACK's dgeqr2 reflects (beta = -sign(alpha)
 * sqrt(alpha^2 + |x|^2), no reflection where |x| = 0), every sum over rows
 * sequential in row order, then back substitution.
 *
 * The rank rule: the rank is the number of diagonal entries R_kk of R with
 * |R_kk| > n eps max_j |R_jj|, eps = 2^-52 (np.linalg.lstsq's default
 * cutoff, eps max(n, p), applied to R's diagonal, not to singular values).
 * Returns the rank; beta[0..p-1] is written only when it is p. */
int64_t tr_local_fit(const double *x, const double *y, int64_t n, double point, double bw, int64_t p,
                     double *work, double *beta)
{
    const int64_t w = p + 1;
    double diag[4], s[5], norm2 = 0.0, phi[BLOCK], spare[BLOCK], pad[BLOCK], ones[BLOCK], at[BLOCK];
    for (int i = 0; i < BLOCK; i++) {
        ones[i] = 1.0;
        at[i] = point;
    }
    for (int64_t lo = 0; lo < n; lo += BLOCK) {
        const int len = n - lo < BLOCK ? (int)(n - lo) : BLOCK;
        pdf_terms(block_of(x, lo, len, pad), ones, at, bw, phi, spare);
        for (int b = 0; b < len; b++) {
            const int64_t i = lo + b;
            const double u = (x[i] - point) / bw, root = sqrt(phi[b]);
            double *row = work + i * w, power = 1.0;
            for (int64_t j = 0; j < p; j++) {
                row[j] = root * power;
                power = power * u;
            }
            row[p] = root * y[i];
            const double sq = row[0] * row[0];
            norm2 = i == 1 ? sq : i > 1 ? norm2 + sq : norm2;
        }
    }
    for (int64_t k = 0; k < p; k++) {
        double *top = work + k * w;
        const double alpha = top[k];
        if (norm2 == 0.0) { /* nothing below the diagonal: no reflection */
            diag[k] = alpha;
        } else {
            const double nrm = sqrt(alpha * alpha + norm2);
            const double beta_k = alpha >= 0.0 ? -nrm : nrm;
            const double tau = (beta_k - alpha) / beta_k, d = alpha - beta_k;
            for (int64_t j = k + 1; j < w; j++)
                s[j] = top[j];
            for (int64_t i = k + 1; i < n; i++) {
                double *row = work + i * w;
                row[k] = row[k] / d;
                for (int64_t j = k + 1; j < w; j++)
                    s[j] = s[j] + row[k] * row[j];
            }
            for (int64_t j = k + 1; j < w; j++) {
                s[j] = tau * s[j];
                top[j] = top[j] - s[j];
            }
            top[k] = beta_k;
            diag[k] = beta_k;
            for (int64_t i = k + 1; i < n; i++) {
                double *row = work + i * w;
                for (int64_t j = k + 1; j < w; j++)
                    row[j] = row[j] - s[j] * row[k];
            }
        }
        /* the squares below the next diagonal entry */
        if (k + 1 < p) {
            norm2 = 0.0;
            for (int64_t i = k + 2; i < n; i++) {
                const double v = work[i * w + k + 1];
                norm2 = i == k + 2 ? v * v : norm2 + v * v;
            }
        }
    }
    double largest = 0.0;
    for (int64_t k = 0; k < p; k++)
        largest = fabs(diag[k]) > largest ? fabs(diag[k]) : largest;
    const double tol = (double)n * DBL_EPSILON * largest;
    int64_t rank = 0;
    for (int64_t k = 0; k < p; k++)
        rank += fabs(diag[k]) > tol;
    if (rank == p) {
        for (int64_t k = p - 1; k >= 0; k--) {
            double acc = work[k * w + p];
            for (int64_t j = k + 1; j < p; j++)
                acc = acc - work[k * w + j] * beta[j];
            beta[k] = acc / work[k * w + k];
        }
    }
    return rank;
}


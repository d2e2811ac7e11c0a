/* Compiled inner loops of the reshaped bootstrap and the Chernoff simulator.
 *
 * Each function repeats, operation for operation, the numpy loop it replaces
 * (inference._replicate and chernoff._scan_strip), so its results are equal to
 * theirs bit for bit:
 *   - bins are filled in draw order, starting from 0.0, as np.bincount does;
 *   - a cumulative sum starts from its first element, as np.cumsum does;
 *   - the first argmax wins, and the first NaN counts as the maximum, as
 *     np.argmax does.
 * Only additions, subtractions, divisions and comparisons are used, and the
 * library is built with -ffp-contract=off, so no step is fused or reordered.
 */

#include <stdint.h>

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

/* One reshaped-bootstrap replicate: bin the scores g[idx[i]] by rank[idx[i]]
 * into k bins, take the suffix sums S* (S*[k] = 0), the criterion
 * ((S* - suffix_orig) / n) - penalty over k + 1 segments, and return its
 * first argmax.  work holds k + 1 doubles and ends holding the criterion. */
int64_t tr_bootstrap_replicate(const int64_t *idx, int64_t n, const int64_t *rank, const double *g,
                               int64_t k, const double *suffix_orig, const double *penalty,
                               double *work)
{
    for (int64_t j = 0; j < k; j++)
        work[j] = 0.0;
    for (int64_t i = 0; i < n; i++) {
        int64_t row = idx[i];
        work[rank[row]] += g[row];
    }
    double denom = (double)n;
    double suffix = work[k - 1];
    work[k] = ((0.0 - suffix_orig[k]) / denom) - penalty[k];
    work[k - 1] = ((suffix - suffix_orig[k - 1]) / denom) - penalty[k - 1];
    for (int64_t j = k - 2; j >= 0; j--) {
        suffix = suffix + work[j];
        work[j] = ((suffix - suffix_orig[j]) / denom) - penalty[j];
    }
    double peak;
    return first_argmax(work, k + 1, &peak);
}

/* One strip of Chernoff paths: rows of 2m scaled increments, the right wing
 * in columns 0..m-1 and the left wing in m..2m-1.  For each row and wing,
 * the first argmax of cumsum(increments) - penalty and its value. */
void tr_scan_strip(const double *x, int64_t rows, int64_t m, const double *penalty,
                   int64_t *right_arg, double *right_max, int64_t *left_arg, double *left_max,
                   double *wing)
{
    for (int64_t i = 0; i < rows; i++) {
        for (int side = 0; side < 2; side++) {
            const double *inc = x + (2 * i + side) * m;
            double sum = inc[0];
            wing[0] = sum - penalty[0];
            for (int64_t j = 1; j < m; j++) {
                sum = sum + inc[j];
                wing[j] = sum - penalty[j];
            }
            if (side == 0)
                right_arg[i] = first_argmax(wing, m, &right_max[i]);
            else
                left_arg[i] = first_argmax(wing, m, &left_max[i]);
        }
    }
}

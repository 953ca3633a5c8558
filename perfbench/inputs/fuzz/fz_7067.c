static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[5] = {8, -2};
int g1[3] = {-6, 8};
static int f0(int a, int b) {
    int r = a & (b | 6);
    if (r >= 2)
        r = r + 6;
    mix((unsigned int)r);
    return r;
}
static void fz_drop(int *p) { free(p); }
int main(void) {
    int v0 = 11;
    v0 = v0 ^ f0(((v0 << 1) >> 4), (20 <= (-14 + v0)));
    int a0[3] = {-6, -1};
    mix((unsigned int)((g0[(unsigned int)(-17) % 5u] != v0)));
    int a1[6] = {1, -1};
    int *fzu = malloc(sizeof(int) * 4);
    fzu[0] = 9;
    fz_drop(fzu);
    fzu[0] = 7;
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
